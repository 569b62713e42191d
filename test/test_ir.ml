(* Tests for everest_ir: types, attributes, construction, verification,
   printing/parsing round-trips, rewriting and interpretation. *)

open Everest_ir

let () = Registry.register_all ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Approximate equality on interpreter values (relative epsilon on floats). *)
let rt_equal ?(eps = 1e-9) (a : Interp.rt) (b : Interp.rt) =
  let close x y = Float.abs (x -. y) <= eps *. (1.0 +. Float.abs x) in
  match (a, b) with
  | RInt x, RInt y -> x = y
  | RFloat x, RFloat y -> close x y
  | RBuf x, RBuf y -> x.shape = y.shape && Array.for_all2 close x.data y.data
  | RToken, RToken -> true
  | _ -> false

let type_str t = Fmt.str "%a" Types.pp t

(* A module holding [f] alone, printed. *)
let func_text f = Printer.module_to_string (Ir.modul "m" [ f ])

(* ---- Types ---------------------------------------------------------------- *)

let test_type_sizes () =
  checki "tensor elements" (4 * 6)
    (Option.get (Types.num_elements (Types.tensor Types.F64 [ 4; 6 ])));
  checki "i8 memref elements" 16
    (Option.get (Types.num_elements (Types.memref Types.I8 [ 4; 4 ])));
  checkb "dyn tensor has no size" true
    (Types.num_elements (Types.tensor_dyn Types.F32 [ Types.Dyn ]) = None);
  checkb "scalar has no shape" true (Types.num_elements Types.f64 = None)

let test_type_printing () =
  checks "tensor" "tensor<4x?x8xf32>"
    (type_str (Types.tensor_dyn Types.F32 [ Static 4; Dyn; Static 8 ]));
  checks "memref" "memref<16xf64, bram>"
    (type_str
       (Types.Memref { elt = Types.F64; shape = [ Static 16 ]; space = Types.Bram }));
  checks "stream" "stream<f32>" (type_str (Types.Stream (Types.Scalar F32)));
  checks "func" "(f64, i32) -> (f64)"
    (type_str (Types.func [ Types.f64; Types.Scalar I32 ] [ Types.f64 ]))

let test_type_compat () =
  let a = Types.tensor_dyn Types.F64 [ Static 4; Dyn ] in
  let b = Types.tensor Types.F64 [ 4; 7 ] in
  checkb "dyn compatible" true (Types.compatible a b);
  checkb "not equal" false (Types.equal a b);
  checkb "mismatch" false
    (Types.compatible b (Types.tensor Types.F64 [ 5; 7 ]))

(* ---- Attributes ----------------------------------------------------------- *)

let test_attrs () =
  let attrs =
    [ ("tile", Attr.ints [ 8; 8 ]); ("name", Attr.str "k"); ("f", Attr.float 2.5);
      ("callee", Attr.sym "g") ]
  in
  checkb "ints" true (Attr.find "tile" attrs = Some (Attr.List [ Int 8; Int 8 ]));
  checkb "str" true (Attr.find_str "name" attrs = Some "k");
  checkb "float" true (Attr.find "f" attrs = Some (Attr.Float 2.5));
  checkb "sym" true (Attr.find_sym "callee" attrs = Some "g");
  checkb "kind mismatch" true (Attr.find_str "callee" attrs = None);
  checkb "missing" true (Attr.find "zzz" attrs = None);
  (* the first binding wins, so a prepended one replaces the old *)
  let attrs = ("name", Attr.str "q") :: attrs in
  checkb "set replaces" true (Attr.find_str "name" attrs = Some "q")

(* ---- Construction & verification ------------------------------------------ *)

let build_axpy ctx =
  (* f(a, x, y) = a*x + y over f64 *)
  let a = Ir.fresh_value ctx Types.f64 in
  let x = Ir.fresh_value ctx Types.f64 in
  let y = Ir.fresh_value ctx Types.f64 in
  let m = Dialect_arith.mulf ctx a x in
  let s = Dialect_arith.addf ctx (Ir.result m) y in
  let r = Dialect_func.return ctx [ Ir.result s ] in
  Ir.func "axpy" [ a; x; y ] [ Types.f64 ] [ m; s; r ]

let test_build_verify () =
  let ctx = Ir.ctx () in
  let f = build_axpy ctx in
  let m = Ir.modul "m" [ f ] in
  (match Verify.check_module m with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "unexpected diags: %s" (Verify.errors_to_string ds));
  checki "op count" 3 (Ir.module_op_count m)

let test_verify_use_before_def () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx Types.f64 in
  let ghost = Ir.fresh_value ctx Types.f64 in
  let s = Dialect_arith.addf ctx x ghost in
  let f = Ir.func "bad" [ x ] [] [ s ] in
  let ds = Verify.verify_func f in
  checkb "flagged" true (List.length ds >= 1)

let test_verify_unregistered () =
  let ctx = Ir.ctx () in
  let o = Ir.op ctx "bogus.op" [] [] in
  let f = Ir.func "f" [] [] [ o ] in
  checkb "unregistered flagged" true (List.length (Verify.verify_func f) = 1);
  checkb "allowed when permitted" true
    (Verify.verify_func ~allow_unregistered:true f = [])

let test_verify_bad_callee () =
  let ctx = Ir.ctx () in
  let c = Dialect_func.call ctx "nothere" [] [] in
  let f = Ir.func "f" [] [] [ c ] in
  let m = Ir.modul "m" [ f ] in
  checkb "bad callee flagged" true (Verify.verify_module m <> [])

let test_verify_matmul_shapes () =
  let ctx = Ir.ctx () in
  let a = Ir.fresh_value ctx (Types.tensor Types.F64 [ 2; 3 ]) in
  let b = Ir.fresh_value ctx (Types.tensor Types.F64 [ 5; 2 ]) in
  (* bypass the builder's own check by constructing the op raw *)
  let o = Ir.op ctx "tensor.matmul" [ a; b ] [ Types.tensor Types.F64 [ 2; 2 ] ] in
  let f = Ir.func "f" [ a; b ] [] [ o ] in
  checkb "inner-dim mismatch flagged" true (Verify.verify_func f <> [])

(* ---- Printing and parsing -------------------------------------------------- *)

let test_print_parse_roundtrip () =
  let ctx = Ir.ctx () in
  let f = build_axpy ctx in
  let m = Ir.modul "m" [ f ] in
  let s1 = Printer.module_to_string m in
  let ctx2 = Ir.ctx () in
  let m2 = Parser.parse_module ctx2 s1 in
  let s2 = Printer.module_to_string m2 in
  checks "roundtrip" s1 s2

let test_parse_regions () =
  let src =
    {|module @m {
func @sum(%0: index) -> (f64) {
  %1 = "arith.constant"() {value = 0} : () -> (index)
  %2 = "arith.constant"() {value = 1} : () -> (index)
  %3 = "arith.constant"() {value = 0x0p+0} : () -> (f64)
  %4 = "arith.constant"() {value = 0x1p+0} : () -> (f64)
  %5 = "scf.for"(%1, %0, %2, %3) : (index, index, index, f64) -> (f64) {
^(%6: index, %7: f64):
  %8 = "arith.addf"(%7, %4) : (f64, f64) -> (f64)
  "scf.yield"(%8) : (f64) -> ()
}
  "func.return"(%5) : (f64) -> ()
}
}|}
  in
  let ctx = Ir.ctx () in
  let m = Parser.parse_module ctx src in
  (match Verify.check_module m with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "diags: %s" (Verify.errors_to_string ds));
  let rets, _ = Interp.run_func ctx m "sum" [ Interp.RInt 5 ] in
  checkb "counted to 5" true
    (rt_equal (List.hd rets) (Interp.RFloat 5.0));
  (* parse is the inverse of print *)
  let s = Printer.module_to_string m in
  let m2 = Parser.parse_module (Ir.ctx ()) s in
  checks "re-roundtrip" s (Printer.module_to_string m2)

let test_parse_types_attrs () =
  let ctx = Ir.ctx () in
  let src =
    {|module @m {
func @g(%0: memref<4x?xf32, device<1>>, %1: stream<i8>) -> () {
  "df.sink"(%0) {name = "out", meta = {a = [1, 2], b = true, t = tensor<2x2xf64>}} : (memref<4x?xf32, device<1>>) -> ()
}
}|}
  in
  let f = List.hd (Parser.parse_module ctx src).Ir.funcs in
  checki "two args" 2 (List.length f.Ir.fargs);
  let o = List.hd f.Ir.fbody in
  (match Ir.attr "meta" o with
  | Some (Attr.Dict d) ->
      checkb "list attr" true (Attr.find "a" d = Some (Attr.List [ Int 1; Int 2 ]));
      checkb "bool attr" true (Attr.find "b" d = Some (Attr.Bool true))
  | _ -> Alcotest.fail "missing dict attr");
  let s = func_text f in
  let f2 = List.hd (Parser.parse_module (Ir.ctx ()) s).Ir.funcs in
  checks "roundtrip" s (func_text f2)

(* Integer literals the parser cannot hold (a value id or a shape dimension
   beyond int range) and a value id with no digits are parse errors, not
   [Failure]s. *)
let test_parse_bad_ints () =
  List.iter
    (fun arg ->
      let src = Printf.sprintf "module @m {\nfunc @f(%s) -> () {\n}\n}\n" arg in
      match Parser.parse_module (Ir.ctx ()) src with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" arg)
    [ "%99999999999999999999: f64"; "%0: tensor<99999999999999999999x2xf64>";
      "%-: f64" ]

(* ---- Transformations ------------------------------------------------------- *)

let test_constant_folding () =
  let ctx = Ir.ctx () in
  let c1 = Dialect_arith.const_f ctx 2.0 in
  let c2 = Dialect_arith.const_f ctx 3.0 in
  let s = Dialect_arith.addf ctx (Ir.result c1) (Ir.result c2) in
  let r = Dialect_func.return ctx [ Ir.result s ] in
  let f = Ir.func "k" [] [ Types.f64 ] [ c1; c2; s; r ] in
  let m = Ir.modul "m" [ f ] in
  let m', _ = Pass.run_pipeline ctx Transforms.standard_pipeline m in
  let f' = Option.get (Ir.find_func m' "k") in
  (* after fold + dce only the constant 5.0 and the return remain *)
  checki "two ops left" 2 (List.length f'.Ir.fbody);
  let rets, _ = Interp.run_func ctx m' "k" [] in
  checkb "value preserved" true (rt_equal (List.hd rets) (RFloat 5.0))

let test_algebraic_identities () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx Types.f64 in
  let zero = Dialect_arith.const_f ctx 0.0 in
  let s = Dialect_arith.addf ctx x (Ir.result zero) in
  let one = Dialect_arith.const_f ctx 1.0 in
  let p = Dialect_arith.mulf ctx (Ir.result s) (Ir.result one) in
  let r = Dialect_func.return ctx [ Ir.result p ] in
  let f = Ir.func "id" [ x ] [ Types.f64 ] [ zero; s; one; p; r ] in
  let m, _ = Pass.run_pipeline ctx Transforms.standard_pipeline (Ir.modul "m" [ f ]) in
  let f' = Option.get (Ir.find_func m "id") in
  checki "identity chain folded away" 1 (List.length f'.Ir.fbody)

let test_involutions () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 3; 4 ]) in
  let t1 = Ir_build.transpose ctx x in
  let t2 = Ir_build.transpose ctx (Ir.result t1) in
  let r = Dialect_func.return ctx [ Ir.result t2 ] in
  let f = Ir.func "tt" [ x ] [ x.Ir.vty ] [ t1; t2; r ] in
  let m, _ = Pass.run_pipeline ctx Transforms.standard_pipeline (Ir.modul "m" [ f ]) in
  let f' = Option.get (Ir.find_func m "tt") in
  checki "double transpose erased" 1 (List.length f'.Ir.fbody)

let test_encrypt_decrypt_fold () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.tensor Types.F64 [ 8 ]) in
  let k = Ir.fresh_value ctx Types.f64 in
  let e = Dialect_sec.encrypt ctx x k in
  let d = Ir_build.decrypt ctx (Ir.result e) k in
  let r = Dialect_func.return ctx [ Ir.result d ] in
  let f = Ir.func "ed" [ x; k ] [ x.Ir.vty ] [ e; d; r ] in
  let m, _ = Pass.run_pipeline ctx Transforms.standard_pipeline (Ir.modul "m" [ f ]) in
  let f' = Option.get (Ir.find_func m "ed") in
  checki "encrypt-decrypt folded" 1 (List.length f'.Ir.fbody)

let test_cse () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx Types.f64 in
  let a = Dialect_arith.mulf ctx x x in
  let b = Dialect_arith.mulf ctx x x in
  let s = Dialect_arith.addf ctx (Ir.result a) (Ir.result b) in
  let r = Dialect_func.return ctx [ Ir.result s ] in
  let f = Ir.func "sq2" [ x ] [ Types.f64 ] [ a; b; s; r ] in
  let m, _ = Pass.run_pipeline ctx [ Transforms.cse ] (Ir.modul "m" [ f ]) in
  let f' = Option.get (Ir.find_func m "sq2") in
  checki "duplicate mul removed" 3 (List.length f'.Ir.fbody);
  let rets, _ = Interp.run_func ctx m "sq2" [ RFloat 3.0 ] in
  checkb "semantics kept" true (rt_equal (List.hd rets) (RFloat 18.0))

let test_dce_keeps_stores () =
  let ctx = Ir.ctx () in
  let alloc = Dialect_memref.alloc ctx Types.F64 [ 4 ] in
  let c = Dialect_arith.const_f ctx 7.0 in
  let i0 = Dialect_arith.const_index ctx 0 in
  let st = Dialect_memref.store ctx (Ir.result c) (Ir.result alloc) [ Ir.result i0 ] in
  let dead = Dialect_arith.addf ctx (Ir.result c) (Ir.result c) in
  let r = Dialect_func.return ctx [] in
  let f = Ir.func "st" [] [] [ alloc; c; i0; st; dead; r ] in
  let m, _ = Pass.run_pipeline ctx [ Transforms.dce ] (Ir.modul "m" [ f ]) in
  let f' = Option.get (Ir.find_func m "st") in
  checki "only dead add removed" 5 (List.length f'.Ir.fbody)

(* DCE deletes exactly the ops [Transforms.dead_ops] reports, so nothing
   it leaves behind is dead.  Both shapes need uses counted across
   nesting levels: a loop body computing a chain nothing reads, and a
   top-level product whose only reader is dead code inside a second
   loop. *)
let test_dce_deletes_every_dead_op () =
  let ctx = Ir.ctx () in
  let r = Ir.result in
  let x = Ir.fresh_value ctx Types.f64 in
  let lo = Dialect_arith.const_index ctx 0 in
  let hi = Dialect_arith.const_index ctx 4 in
  let st = Dialect_arith.const_index ctx 1 in
  let loop1 =
    Dialect_scf.for_ ctx (r lo) (r hi) (r st) (fun ctx _iv _ ->
        let c = Dialect_arith.mulf ctx x x in
        let d = Dialect_arith.addf ctx (r c) (r c) in
        ([ c; d ], []))
  in
  let m = Dialect_arith.mulf ctx x x in
  let loop2 =
    Dialect_scf.for_ ctx (r lo) (r hi) (r st) (fun ctx _iv _ ->
        ([ Dialect_arith.addf ctx (r m) (r m) ], []))
  in
  let ret = Dialect_func.return ctx [ x ] in
  let f =
    Ir.func "shapes" [ x ] [ Types.f64 ] [ lo; hi; st; loop1; m; loop2; ret ]
  in
  checki "ops before" 12 (Ir.count_ops f.Ir.fbody);
  let names ops = List.map (fun (o : Ir.op) -> o.Ir.name) ops in
  Alcotest.(check (list string))
    "dead ops"
    [ "arith.mulf"; "arith.addf"; "arith.mulf"; "arith.addf" ]
    (names (Transforms.dead_ops f));
  let m', _ = Pass.run_pipeline ctx [ Transforms.dce ] (Ir.modul "m" [ f ]) in
  let f' = Option.get (Ir.find_func m' "shapes") in
  checki "dce deletes all four" 8 (Ir.count_ops f'.Ir.fbody);
  checki "nothing left dead" 0 (List.length (Transforms.dead_ops f'));
  checki "still verifies" 0 (List.length (Verify.verify_module m'))

(* A random function for the dead-op property: f64 arithmetic over the
   values in scope, stores that keep some of them live, nested [scf.for]
   and [scf.if] bodies (whose values stay inside their region), and a
   return of one top-level value.  Whatever nothing live reads is dead:
   chains through loop bodies, and products that only dead code inside a
   region reads. *)
let random_dce_func seed =
  let rs = Random.State.make [| seed |] in
  let ctx = Ir.ctx () in
  let r = Ir.result in
  let x = Ir.fresh_value ctx Types.f64 and cond = Ir.fresh_value ctx Types.i1 in
  let buf = Dialect_memref.alloc ctx Types.F64 [ 4 ] in
  let i0 = Dialect_arith.const_index ctx 0 and one = Dialect_arith.const_index ctx 1 in
  let four = Dialect_arith.const_index ctx 4 in
  let pick scope = List.nth scope (Random.State.int rs (List.length scope)) in
  let rec block depth scope n =
    if n = 0 then ([], scope)
    else
      let body () = fst (block (depth + 1) scope (Random.State.int rs 6)) in
      let o, scope =
        match Random.State.int rs (if depth < 3 then 10 else 7) with
        | 0 | 1 | 2 ->
            let o = Dialect_arith.addf ctx (pick scope) (pick scope) in
            (o, r o :: scope)
        | 3 | 4 ->
            let o = Dialect_arith.mulf ctx (pick scope) (pick scope) in
            (o, r o :: scope)
        | 5 -> (Dialect_memref.store ctx (pick scope) (r buf) [ r i0 ], scope)
        | 6 ->
            let o = Dialect_arith.const_f ctx (float_of_int n) in
            (o, r o :: scope)
        | 7 | 8 ->
            (Dialect_scf.for_ ctx (r i0) (r four) (r one) (fun _ _ _ -> (body (), [])), scope)
        | _ ->
            let arm _ = (body (), []) in
            (Ir_build.if_ ctx cond arm arm, scope)
      in
      let rest, scope = block depth scope (n - 1) in
      (o :: rest, scope)
  in
  let ops, scope = block 0 [ x ] (4 + Random.State.int rs 24) in
  Ir.func "g" [ x; cond ] [ Types.f64 ]
    ((buf :: i0 :: one :: four :: ops) @ [ Dialect_func.return ctx [ pick scope ] ])

let prop_dead_ops_match_reference =
  QCheck.Test.make ~count:500 ~name:"dead_ops = iterated reference rule"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let f = random_dce_func seed in
      let fast = Transforms.dead_ops f and slow = Dce_reference.dead_ops f in
      List.length fast = List.length slow && List.for_all2 ( == ) fast slow)

(* A 4,000-op dead chain: each link reads only the previous one.  Dead as a
   whole when nothing reads its end, live as a whole when the return does. *)
let test_dce_long_chain () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx Types.f64 in
  let chain =
    List.rev
      (List.fold_left
         (fun acc _ ->
           let v = match acc with o :: _ -> Ir.result o | [] -> x in
           Dialect_arith.addf ctx v v :: acc)
         [] (List.init 4000 Fun.id))
  in
  let last = Ir.result (List.nth chain 3999) in
  let dead_end = Ir.func "dead" [ x ] [ Types.f64 ] (chain @ [ Dialect_func.return ctx [ x ] ]) in
  let dead = Transforms.dead_ops dead_end in
  checki "every link dead" 4000 (List.length dead);
  checkb "in program order" true (List.for_all2 ( == ) dead chain);
  let live_end =
    Ir.func "live" [ x ] [ Types.f64 ] (chain @ [ Dialect_func.return ctx [ last ] ])
  in
  checki "nothing dead when the return reads the end" 0
    (List.length (Transforms.dead_ops live_end))

(* ---- Interpreter ------------------------------------------------------------ *)

let test_interp_matmul () =
  let ctx = Ir.ctx () in
  let a = Ir.fresh_value ctx (Types.tensor Types.F64 [ 2; 3 ]) in
  let b = Ir.fresh_value ctx (Types.tensor Types.F64 [ 3; 2 ]) in
  let mm = Dialect_tensor.matmul ctx a b in
  let r = Dialect_func.return ctx [ Ir.result mm ] in
  let f = Ir.func "mm" [ a; b ] [ (Ir.result mm).Ir.vty ] [ mm; r ] in
  let m = Ir.modul "m" [ f ] in
  let av = Interp.tensor_of_array [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let bv = Interp.tensor_of_array [ 3; 2 ] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  let rets, profile = Interp.run_func ctx m "mm" [ av; bv ] in
  let expect = Interp.tensor_of_array [ 2; 2 ] [| 58.; 64.; 139.; 154. |] in
  checkb "matmul result" true (rt_equal (List.hd rets) expect);
  checki "flop count" (2 * 2 * 2 * 3) profile.Interp.scalar_ops

let test_interp_einsum_matches_matmul () =
  let ctx = Ir.ctx () in
  let ty_a = Types.tensor Types.F64 [ 2; 3 ] in
  let ty_b = Types.tensor Types.F64 [ 3; 2 ] in
  let a = Ir.fresh_value ctx ty_a in
  let b = Ir.fresh_value ctx ty_b in
  let cm = Dialect_tensor.contract ctx "ij,jk->ik" [ a; b ] (Types.tensor Types.F64 [ 2; 2 ]) in
  let r = Dialect_func.return ctx [ Ir.result cm ] in
  let f = Ir.func "ein" [ a; b ] [ (Ir.result cm).Ir.vty ] [ cm; r ] in
  let m = Ir.modul "m" [ f ] in
  let av = Interp.tensor_of_array [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let bv = Interp.tensor_of_array [ 3; 2 ] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  let rets, _ = Interp.run_func ctx m "ein" [ av; bv ] in
  let expect = Interp.tensor_of_array [ 2; 2 ] [| 58.; 64.; 139.; 154. |] in
  checkb "einsum = matmul" true (rt_equal (List.hd rets) expect)

let test_interp_loop_memref () =
  (* sum of squares 0..n-1 via explicit loop and memref accumulation *)
  let ctx = Ir.ctx () in
  let n = Ir.fresh_value ctx Types.index in
  let zero = Dialect_arith.const_f ctx 0.0 in
  let lo = Dialect_arith.const_index ctx 0 in
  let one = Dialect_arith.const_index ctx 1 in
  let loop =
    Dialect_scf.for_ ctx ~iter_args:[ Ir.result zero ] (Ir.result lo) n
      (Ir.result one) (fun ctx iv args ->
        let fi = Ir_build.cast ctx iv Types.f64 in
        let sq = Dialect_arith.mulf ctx (Ir.result fi) (Ir.result fi) in
        let acc = Dialect_arith.addf ctx (List.hd args) (Ir.result sq) in
        ([ fi; sq; acc ], [ Ir.result acc ]))
  in
  let r = Dialect_func.return ctx [ Ir.result loop ] in
  let f = Ir.func "ss" [ n ] [ Types.f64 ] [ zero; lo; one; loop; r ] in
  let m = Ir.modul "m" [ f ] in
  (match Verify.check_module m with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "diags: %s" (Verify.errors_to_string ds));
  let rets, _ = Interp.run_func ctx m "ss" [ RInt 10 ] in
  checkb "sum of squares" true (rt_equal (List.hd rets) (RFloat 285.0))

let test_interp_call () =
  let ctx = Ir.ctx () in
  let axpy = build_axpy ctx in
  let a = Ir.fresh_value ctx Types.f64 in
  let call = Dialect_func.call ctx "axpy" [ a; a; a ] [ Types.f64 ] in
  let r = Dialect_func.return ctx [ Ir.result call ] in
  let g = Ir.func "g" [ a ] [ Types.f64 ] [ call; r ] in
  let m = Ir.modul "m" [ axpy; g ] in
  let rets, profile = Interp.run_func ctx m "g" [ RFloat 3.0 ] in
  checkb "g(3) = 3*3+3" true (rt_equal (List.hd rets) (RFloat 12.0));
  checki "one call" 1 profile.Interp.calls

let test_interp_step_budget () =
  let ctx = Ir.ctx () in
  let n = Ir.fresh_value ctx Types.index in
  let lo = Dialect_arith.const_index ctx 0 in
  let one = Dialect_arith.const_index ctx 1 in
  let loop =
    Dialect_scf.for_ ctx (Ir.result lo) n (Ir.result one) (fun ctx iv _ ->
        let sq = Dialect_arith.muli ctx iv iv in
        ([ sq ], []))
  in
  let r = Dialect_func.return ctx [] in
  let f = Ir.func "spin" [ n ] [] [ lo; one; loop; r ] in
  let m = Ir.modul "m" [ f ] in
  match Interp.run_func ~max_steps:100 ctx m "spin" [ RInt 1000 ] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected step budget exhaustion"

(* ---- loop transforms --------------------------------------------------------- *)

(* sum of i*i for i in 0..n-1, as an IR loop *)
let build_sumsq ctx n =
  let zero = Dialect_arith.const_f ctx 0.0 in
  let lo = Dialect_arith.const_index ctx 0 in
  let hi = Dialect_arith.const_index ctx n in
  let one = Dialect_arith.const_index ctx 1 in
  let loop =
    Dialect_scf.for_ ctx ~iter_args:[ Ir.result zero ] (Ir.result lo)
      (Ir.result hi) (Ir.result one) (fun ctx iv args ->
        let fi = Ir_build.cast ctx iv Types.f64 in
        let sq = Dialect_arith.mulf ctx (Ir.result fi) (Ir.result fi) in
        let acc = Dialect_arith.addf ctx (List.hd args) (Ir.result sq) in
        ([ fi; sq; acc ], [ Ir.result acc ]))
  in
  let r = Dialect_func.return ctx [ Ir.result loop ] in
  Ir.func "sumsq" [] [ Types.f64 ] [ zero; lo; hi; one; loop; r ]

let count_loops f =
  Ir.fold_ops
    (fun acc (o : Ir.op) -> if o.Ir.name = "scf.for" then acc + 1 else acc)
    0 f.Ir.fbody

let eval_f ctx f =
  let m = Ir.modul "m" [ f ] in
  (match Verify.check_module m with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "invalid: %s" (Verify.errors_to_string ds));
  let rets, _ = Interp.run_func ctx m f.Ir.fname [] in
  List.hd rets

let test_full_unroll () =
  let ctx = Ir.ctx () in
  let f = build_sumsq ctx 7 in
  let expect = eval_f ctx f in
  let f' = Loop_transforms.full_unroll ctx f in
  checki "no loops left" 0 (count_loops f');
  checkb "semantics preserved" true (rt_equal (eval_f ctx f') expect)

let test_full_unroll_respects_limit () =
  let ctx = Ir.ctx () in
  let f = build_sumsq ctx 100 in
  let f' = Loop_transforms.full_unroll ~limit:16 ctx f in
  checki "big loop kept" 1 (count_loops f')

let test_partial_unroll () =
  let ctx = Ir.ctx () in
  let f = build_sumsq ctx 12 in
  let expect = eval_f ctx f in
  let f' = Loop_transforms.unroll_by ctx ~factor:4 f in
  checki "loop remains" 1 (count_loops f');
  checkb "semantics preserved" true (rt_equal (eval_f ctx f') expect);
  (* body got wider: 4 multiplies instead of 1 *)
  let muls =
    Ir.fold_ops
      (fun acc (o : Ir.op) -> if o.Ir.name = "arith.mulf" then acc + 1 else acc)
      0 f'.Ir.fbody
  in
  checki "replicated body" 4 muls

let test_partial_unroll_skips_indivisible () =
  let ctx = Ir.ctx () in
  let f = build_sumsq ctx 10 in
  let expect = eval_f ctx f in
  let f' = Loop_transforms.unroll_by ctx ~factor:3 f in
  (* 10 mod 3 <> 0: unchanged *)
  checki "loop kept" 1 (count_loops f');
  checkb "semantics" true (rt_equal (eval_f ctx f') expect)

let test_inline () =
  let ctx = Ir.ctx () in
  let axpy = build_axpy ctx in
  let a = Ir.fresh_value ctx Types.f64 in
  let call1 = Dialect_func.call ctx "axpy" [ a; a; a ] [ Types.f64 ] in
  let call2 =
    Dialect_func.call ctx "axpy" [ Ir.result call1; a; a ] [ Types.f64 ]
  in
  let r = Dialect_func.return ctx [ Ir.result call2 ] in
  let g = Ir.func "g" [ a ] [ Types.f64 ] [ call1; call2; r ] in
  let m = Ir.modul "m" [ axpy; g ] in
  let rets_before, _ = Interp.run_func ctx m "g" [ RFloat 2.0 ] in
  let m' = Loop_transforms.inline_module ctx m in
  let g' = Option.get (Ir.find_func m' "g") in
  let calls =
    Ir.fold_ops
      (fun acc (o : Ir.op) -> if o.Ir.name = "func.call" then acc + 1 else acc)
      0 g'.Ir.fbody
  in
  checki "all calls inlined" 0 calls;
  let rets_after, _ = Interp.run_func ctx m' "g" [ RFloat 2.0 ] in
  checkb "semantics preserved" true
    (rt_equal (List.hd rets_before) (List.hd rets_after))

let prop_unroll_preserves =
  QCheck.Test.make ~count:60 ~name:"unrolling preserves loop semantics"
    QCheck.(pair (int_range 1 24) (int_range 1 6))
    (fun (n, factor) ->
      let ctx = Ir.ctx () in
      let f = build_sumsq ctx n in
      let m = Ir.modul "m" [ f ] in
      let expect, _ = Interp.run_func ctx m "sumsq" [] in
      let full = Loop_transforms.full_unroll ~limit:64 ctx f in
      let partial = Loop_transforms.unroll_by ctx ~factor f in
      let got_full, _ = Interp.run_func ctx (Ir.modul "m" [ full ]) "sumsq" [] in
      let got_partial, _ =
        Interp.run_func ctx (Ir.modul "m" [ partial ]) "sumsq" []
      in
      rt_equal (List.hd got_full) (List.hd expect)
      && rt_equal (List.hd got_partial) (List.hd expect))

(* ---- QCheck properties ------------------------------------------------------ *)

(* Random scalar expression trees: canonicalization must preserve value. *)
let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then map (fun f -> `Const (float_of_int f)) (int_range (-10) 10)
        else
          frequency
            [ (1, map (fun f -> `Const (float_of_int f)) (int_range (-10) 10));
              (2, map2 (fun a b -> `Add (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> `Sub (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> `Mul (a, b)) (self (n / 2)) (self (n / 2))) ]))

let rec expr_value = function
  | `Const f -> f
  | `Add (a, b) -> expr_value a +. expr_value b
  | `Sub (a, b) -> expr_value a -. expr_value b
  | `Mul (a, b) -> expr_value a *. expr_value b

let rec build_expr ctx = function
  | `Const f ->
      let c = Dialect_arith.const_f ctx f in
      ([ c ], Ir.result c)
  | `Add (a, b) | `Sub (a, b) | `Mul (a, b) as e ->
      let ops_a, va = build_expr ctx a in
      let ops_b, vb = build_expr ctx b in
      let o =
        match e with
        | `Add _ -> Dialect_arith.addf ctx va vb
        | `Sub _ -> Dialect_arith.subf ctx va vb
        | _ -> Dialect_arith.mulf ctx va vb
      in
      (ops_a @ ops_b @ [ o ], Ir.result o)

let rec print_expr = function
  | `Const f -> Printf.sprintf "%g" f
  | `Add (a, b) -> Printf.sprintf "(%s + %s)" (print_expr a) (print_expr b)
  | `Sub (a, b) -> Printf.sprintf "(%s - %s)" (print_expr a) (print_expr b)
  | `Mul (a, b) -> Printf.sprintf "(%s * %s)" (print_expr a) (print_expr b)

let prop_canonicalize_preserves_value =
  QCheck.Test.make ~count:200 ~name:"canonicalize preserves expression value"
    (QCheck.make ~print:print_expr gen_expr) (fun e ->
      let ctx = Ir.ctx () in
      let ops, v = build_expr ctx e in
      let r = Dialect_func.return ctx [ v ] in
      let f = Ir.func "e" [] [ Types.f64 ] (ops @ [ r ]) in
      let m = Ir.modul "m" [ f ] in
      let m', _ = Pass.run_pipeline ctx Transforms.standard_pipeline m in
      let rets, _ = Interp.run_func ctx m' "e" [] in
      rt_equal ~eps:1e-6 (List.hd rets) (RFloat (expr_value e)))

let prop_canonicalize_fully_folds_consts =
  QCheck.Test.make ~count:100 ~name:"constant trees fold to a single constant"
    (QCheck.make ~print:print_expr gen_expr) (fun e ->
      let ctx = Ir.ctx () in
      let ops, v = build_expr ctx e in
      let r = Dialect_func.return ctx [ v ] in
      let f = Ir.func "e" [] [ Types.f64 ] (ops @ [ r ]) in
      let m = Ir.modul "m" [ f ] in
      let m', _ = Pass.run_pipeline ctx Transforms.standard_pipeline m in
      let f' = Option.get (Ir.find_func m' "e") in
      List.length f'.Ir.fbody = 2)

let prop_roundtrip =
  QCheck.Test.make ~count:100 ~name:"print/parse roundtrip on random exprs"
    (QCheck.make ~print:print_expr gen_expr) (fun e ->
      let ctx = Ir.ctx () in
      let ops, v = build_expr ctx e in
      let r = Dialect_func.return ctx [ v ] in
      let f = Ir.func "e" [] [ Types.f64 ] (ops @ [ r ]) in
      let s = func_text f in
      let f2 = List.hd (Parser.parse_module (Ir.ctx ()) s).Ir.funcs in
      String.equal s (func_text f2))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_canonicalize_preserves_value; prop_canonicalize_fully_folds_consts;
      prop_roundtrip ]

let () =
  Alcotest.run "everest_ir"
    [
      ( "types",
        [ Alcotest.test_case "sizes" `Quick test_type_sizes;
          Alcotest.test_case "printing" `Quick test_type_printing;
          Alcotest.test_case "compat" `Quick test_type_compat ] );
      ("attrs", [ Alcotest.test_case "find/set" `Quick test_attrs ]);
      ( "verify",
        [ Alcotest.test_case "build+verify" `Quick test_build_verify;
          Alcotest.test_case "use-before-def" `Quick test_verify_use_before_def;
          Alcotest.test_case "unregistered" `Quick test_verify_unregistered;
          Alcotest.test_case "bad callee" `Quick test_verify_bad_callee;
          Alcotest.test_case "matmul shapes" `Quick test_verify_matmul_shapes ] );
      ( "printer-parser",
        [ Alcotest.test_case "roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "regions" `Quick test_parse_regions;
          Alcotest.test_case "types+attrs" `Quick test_parse_types_attrs;
          Alcotest.test_case "bad integers" `Quick test_parse_bad_ints ] );
      ( "transforms",
        [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "identities" `Quick test_algebraic_identities;
          Alcotest.test_case "involutions" `Quick test_involutions;
          Alcotest.test_case "encrypt-decrypt" `Quick test_encrypt_decrypt_fold;
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "dce keeps stores" `Quick test_dce_keeps_stores;
          Alcotest.test_case "dce deletes every dead op" `Quick
            test_dce_deletes_every_dead_op;
          Alcotest.test_case "dce long dead chain" `Quick test_dce_long_chain;
          QCheck_alcotest.to_alcotest prop_dead_ops_match_reference ] );
      ( "interp",
        [ Alcotest.test_case "matmul" `Quick test_interp_matmul;
          Alcotest.test_case "einsum" `Quick test_interp_einsum_matches_matmul;
          Alcotest.test_case "loop" `Quick test_interp_loop_memref;
          Alcotest.test_case "call" `Quick test_interp_call;
          Alcotest.test_case "step budget" `Quick test_interp_step_budget ] );
      ( "loop-transforms",
        [ Alcotest.test_case "full unroll" `Quick test_full_unroll;
          Alcotest.test_case "unroll limit" `Quick test_full_unroll_respects_limit;
          Alcotest.test_case "partial unroll" `Quick test_partial_unroll;
          Alcotest.test_case "indivisible skipped" `Quick test_partial_unroll_skips_indivisible;
          Alcotest.test_case "inline" `Quick test_inline;
          QCheck_alcotest.to_alcotest prop_unroll_preserves ] );
      ("properties", qcheck_tests);
    ]
