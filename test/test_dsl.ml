(* Tests for everest_dsl: shape inference, evaluation, cost model,
   annotations, workflow graphs, and lowering-to-IR semantics. *)

open Everest_dsl
module Ir = Everest_ir.Ir
module Attr = Everest_ir.Attr
module Interp = Everest_ir.Interp
module Verify = Everest_ir.Verify

let () = Everest_ir.Registry.register_all ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let t22 v = Tensor_expr.tensor [ 2; 2 ] v

(* Transposes and sums are contractions. *)
let transpose e = Tensor_expr.contract "ij->ji" [ e ]
let sum e =
  let spec = if List.length (Tensor_expr.shape e) = 1 then "i->" else "ij->" in
  Tensor_expr.contract spec [ e ]

(* ---- shape inference -------------------------------------------------------- *)

let test_shapes () =
  let a = Tensor_expr.input "a" [ 2; 3 ] in
  let b = Tensor_expr.input "b" [ 3; 4 ] in
  let m = Tensor_expr.matmul a b in
  checkb "matmul shape" true (Tensor_expr.shape m = [ 2; 4 ]);
  let t = transpose m in
  checkb "transpose shape" true (Tensor_expr.shape t = [ 4; 2 ]);
  checkb "reduce scalar" true (Tensor_expr.shape (sum m) = [])

let test_shape_errors () =
  let a = Tensor_expr.input "a" [ 2; 3 ] in
  let b = Tensor_expr.input "b" [ 2; 3 ] in
  (match Tensor_expr.matmul a b with
  | exception Tensor_expr.Shape_error _ -> ()
  | _ -> Alcotest.fail "matmul should reject 2x3 @ 2x3");
  (match Tensor_expr.add a (Tensor_expr.input "c" [ 3; 2 ]) with
  | exception Tensor_expr.Shape_error _ -> ()
  | _ -> Alcotest.fail "add should reject mismatched shapes");
  (match Tensor_expr.contract "ij,ij->ij" [ a; Tensor_expr.input "e" [ 3; 2 ] ] with
  | exception Tensor_expr.Shape_error _ -> ()
  | _ -> Alcotest.fail "contract should reject inconsistent extents");
  match Tensor_expr.contract "ij,jk->iq" [ a; Tensor_expr.input "d" [ 3; 4 ] ] with
  | exception Tensor_expr.Shape_error _ -> ()
  | _ -> Alcotest.fail "contract should reject unbound output label"

(* ---- evaluation -------------------------------------------------------------- *)

let test_eval () =
  let open Tensor_expr.O in
  let a = Tensor_expr.input "a" [ 2; 2 ] in
  let b = Tensor_expr.input "b" [ 2; 2 ] in
  let c = Tensor_expr.input "c" [ 2; 2 ] in
  let e = Tensor_expr.relu ((a * b) - c) in
  let r =
    Tensor_expr.eval
      [ ("a", t22 [| 1.; 2.; 3.; 4. |]); ("b", t22 [| 2.; 2.; 2.; 0.5 |]);
        ("c", t22 [| 2.; 2.; 2.; 2. |]) ]
      e
  in
  checkb "relu((a*b)-2)" true (r.Tensor_expr.data = [| 0.; 2.; 4.; 0. |])

let test_eval_matmul_contract_agree () =
  let a = Tensor_expr.input "a" [ 2; 3 ] in
  let b = Tensor_expr.input "b" [ 3; 2 ] in
  let env =
    [ ("a", Tensor_expr.tensor [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |]);
      ("b", Tensor_expr.tensor [ 3; 2 ] [| 7.; 8.; 9.; 10.; 11.; 12. |]) ]
  in
  let mm = Tensor_expr.eval env (Tensor_expr.matmul a b) in
  let ein = Tensor_expr.eval env (Tensor_expr.contract "ij,jk->ik" [ a; b ]) in
  checkb "matmul = einsum" true (mm.Tensor_expr.data = ein.Tensor_expr.data)

let test_eval_reduce () =
  let a = Tensor_expr.input "a" [ 4 ] in
  let env = [ ("a", Tensor_expr.tensor [ 4 ] [| 1.; 2.; 3.; 4. |]) ] in
  checkf "sum" 10.0 (Tensor_expr.eval env (sum a)).Tensor_expr.data.(0)

(* ---- cost model --------------------------------------------------------------- *)

let test_flops () =
  let a = Tensor_expr.input "a" [ 8; 16 ] in
  let b = Tensor_expr.input "b" [ 16; 4 ] in
  checki "matmul flops" (2 * 8 * 4 * 16) (Tensor_expr.flops (Tensor_expr.matmul a b));
  checki "add flops" (8 * 16) (Tensor_expr.flops (Tensor_expr.add a a));
  checki "bytes" (8 * ((8 * 16) + (16 * 4) + (8 * 4)))
    (Tensor_expr.bytes_moved (Tensor_expr.matmul a b))

let test_inputs_dedup () =
  let a = Tensor_expr.input "a" [ 2; 2 ] in
  let e = Tensor_expr.add a Tensor_expr.O.(a * a) in
  checki "single input" 1 (List.length (Tensor_expr.inputs e))

(* ---- annotations ---------------------------------------------------------------- *)

let test_annot_roundtrip () =
  let anns =
    [ Annot.Access (Annot.Strided 8); Annot.Size_hint 4096;
      Annot.Element_range (-1.0, 1.0); Annot.Locality "edge:lyon";
      Annot.Security Everest_ir.Dialect_sec.Confidential;
      Annot.Latency_bound_ms 5.0; Annot.Reuse_factor 3; Annot.Batch 32 ]
  in
  let attrs = Annot.to_attrs anns in
  checki "one attribute per annotation" (List.length anns) (List.length attrs);
  checkb "strided access" true
    (Attr.find_str "everest.access" attrs = Some "strided<8>");
  checkb "security" true
    (Annot.security_level anns = Everest_ir.Dialect_sec.Confidential);
  checkb "latency" true
    (Attr.find "everest.latency_ms" attrs = Some (Attr.Float 5.0));
  (* the attributes a kernel carries survive the IR text *)
  let f = Lower.lower_expr ~annots:anns (Ir.ctx ()) (Tensor_expr.input "x" [ 4 ]) in
  let text = Everest_ir.Printer.module_to_string (Ir.modul "m" [ f ]) in
  let f' = List.hd (Everest_ir.Parser.parse_module (Ir.ctx ()) text).Ir.funcs in
  checkb "printed and parsed back" true (f'.Ir.fattrs = attrs)

(* ---- lowering ------------------------------------------------------------------- *)

let lower_and_compare e env =
  let ctx = Ir.ctx () in
  let f = Lower.lower_expr ctx e in
  (match Verify.verify_func f with
  | [] -> ()
  | ds -> Alcotest.failf "lowered kernel invalid: %s" (Verify.errors_to_string ds));
  let args = List.map (fun (n, _) -> List.assoc n env) (Tensor_expr.inputs e) in
  let lowered, _ = Lower.run_lowered ctx f args in
  let direct = Tensor_expr.eval env e in
  checkb "lowered = direct" true
    (lowered.Tensor_expr.dims = direct.Tensor_expr.dims
    && Array.for_all2
         (fun a b -> Float.abs (a -. b) < 1e-9)
         lowered.Tensor_expr.data direct.Tensor_expr.data)

let test_lower_simple () =
  let open Tensor_expr.O in
  let a = Tensor_expr.input "a" [ 2; 2 ] in
  let b = Tensor_expr.input "b" [ 2; 2 ] in
  let c = Tensor_expr.input "c" [ 2; 2 ] in
  lower_and_compare
    (Tensor_expr.relu ((a * b) + c))
    [ ("a", t22 [| 1.; -2.; 3.; -4. |]); ("b", t22 [| 2.; 2.; 2.; 2. |]);
      ("c", t22 [| 1.; 1.; 1.; 1. |]) ]

let test_lower_matmul_chain () =
  let a = Tensor_expr.input "a" [ 2; 3 ] in
  let b = Tensor_expr.input "b" [ 3; 2 ] in
  let e = sum (Tensor_expr.matmul a (transpose (transpose b))) in
  lower_and_compare e
    [ ("a", Tensor_expr.tensor [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |]);
      ("b", Tensor_expr.tensor [ 3; 2 ] [| 7.; 8.; 9.; 10.; 11.; 12. |]) ]

let test_lower_contract () =
  let a = Tensor_expr.input "a" [ 2; 3 ] in
  let b = Tensor_expr.input "b" [ 3; 4 ] in
  lower_and_compare
    (Tensor_expr.contract "ij,jk->ik" [ a; b ])
    [ ("a", Tensor_expr.tensor [ 2; 3 ] (Array.init 6 float_of_int));
      ("b", Tensor_expr.tensor [ 3; 4 ] (Array.init 12 float_of_int)) ]

let test_lower_scalar_result () =
  let a = Tensor_expr.input "a" [ 4 ] in
  lower_and_compare
    (Tensor_expr.scale 2.0 (sum a))
    [ ("a", Tensor_expr.tensor [ 4 ] [| 1.; 2.; 3.; 4. |]) ]

(* property: random well-shaped expressions lower correctly *)
let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ return (Tensor_expr.input "a" [ 4; 4 ]);
              return (Tensor_expr.input "b" [ 4; 4 ]);
              (* a constant: c is all ones *)
              map
                (fun v ->
                  Tensor_expr.scale (float_of_int v) (Tensor_expr.input "c" [ 4; 4 ]))
                (int_range (-4) 4) ]
        else
          let sub = self (n / 2) in
          oneof
            [ map2 Tensor_expr.add sub sub;
              map2 Tensor_expr.O.( - ) sub sub;
              map2 Tensor_expr.O.( * ) sub sub;
              map2 Tensor_expr.matmul sub sub;
              map transpose sub;
              map Tensor_expr.relu sub;
              map (Tensor_expr.scale 0.5) sub ]))

let prop_lowering_preserves_semantics =
  QCheck.Test.make ~count:60 ~name:"lowering preserves DSL semantics"
    (QCheck.make ~print:Tensor_expr.fingerprint gen_expr) (fun e ->
      let env =
        [ ("a", Tensor_expr.tensor [ 4; 4 ] (Array.init 16 (fun i -> float_of_int (i mod 5) -. 2.0)));
          ("b", Tensor_expr.tensor [ 4; 4 ] (Array.init 16 (fun i -> 0.5 *. float_of_int (7 - i))));
          ("c", Tensor_expr.tensor [ 4; 4 ] (Array.make 16 1.0)) ]
      in
      let ctx = Ir.ctx () in
      let f = Lower.lower_expr ctx e in
      let args = List.map (fun (n, _) -> List.assoc n env) (Tensor_expr.inputs e) in
      let lowered, _ = Lower.run_lowered ctx f args in
      let direct = Tensor_expr.eval env e in
      lowered.Tensor_expr.dims = direct.Tensor_expr.dims
      && Array.for_all2
           (fun a b ->
             Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a))
           lowered.Tensor_expr.data direct.Tensor_expr.data)

(* ---- model import ------------------------------------------------------------------ *)

let model_text =
  {|# small regression model
input    features 1x4
dense    l1 4x8 relu
dense    out 8x1 linear
scale    0.5
|}

let test_import_shapes () =
  let e = Model_import.import model_text in
  checkb "output shape" true (Tensor_expr.shape e = [ 1; 1 ]);
  let ins = Tensor_expr.inputs e in
  checkb "three inputs (data + 2 weights)" true (List.length ins = 3);
  checkb "weights listed" true
    (Model_import.weights (Model_import.parse_layers model_text)
    = [ ("l1", [ 4; 8 ]); ("out", [ 8; 1 ]) ]);
  checkb "layer sizes" true
    (Model_import.layer_sizes (Model_import.parse_layers model_text) = [ 4; 8; 1 ])

let test_import_evaluates () =
  let e = Model_import.import model_text in
  let env =
    [ ("features", Tensor_expr.tensor [ 1; 4 ] [| 1.; -1.; 0.5; 2. |]);
      ("l1", Tensor_expr.tensor [ 4; 8 ] (Array.init 32 (fun i -> 0.1 *. float_of_int (i mod 5))));
      ("out", Tensor_expr.tensor [ 8; 1 ] (Array.make 8 0.25)) ]
  in
  let r = Tensor_expr.eval env e in
  checkb "finite output" true (Float.is_finite r.Tensor_expr.data.(0));
  (* same model through the IR interpreter *)
  let ctx = Ir.ctx () in
  let f = Lower.lower_expr ctx e in
  let args = List.map (fun (n, _) -> List.assoc n env) (Tensor_expr.inputs e) in
  let lowered, _ = Lower.run_lowered ctx f args in
  checkb "IR path agrees" true
    (Float.abs (lowered.Tensor_expr.data.(0) -. r.Tensor_expr.data.(0)) < 1e-9)

let test_import_errors () =
  let bad cases =
    List.iter
      (fun src ->
        match Model_import.import src with
        | exception Model_import.Import_error _ -> ()
        | _ -> Alcotest.failf "should reject %S" src)
      cases
  in
  bad
    [ "dense l1 4x8 relu";  (* no input *)
      "input x 1x4\ndense l1 5x8 relu";  (* dim mismatch *)
      "input x 1x4\ndense l1 4x8 bogus";  (* unknown activation *)
      "input x 1xfour";  (* bad shape *)
      "input x 1x4\nfrobnicate";  (* unknown directive *) ]

let test_import_compiles () =
  let e = Model_import.import model_text in
  let g = Dataflow.create "model" in
  let src = Dataflow.source g "in" ~bytes:1024 in
  let _ = Dataflow.task g "infer" (Dataflow.Tensor_kernel e) ~deps:[ src ] in
  match Dataflow.validate g with
  | Ok () -> ()
  | Error es -> Alcotest.failf "graph invalid: %s" (String.concat ";" es)

(* ---- particles ---------------------------------------------------------------------- *)

let test_particles_layout_equivalence () =
  let aos = Particles.random_system ~seed:3 ~layout:Particles.Aos ~n:64 ~box:10.0 () in
  let soa = Particles.with_layout aos Particles.Soa in
  checkb "same contents after relayout" true (Particles.equal_contents aos soa);
  (* run the same simulation step under both layouts *)
  let force dx dy d2 =
    let inv = 1.0 /. (d2 +. 0.01) in
    (dx *. inv, dy *. inv)
  in
  let i1 = Particles.step aos ~cutoff:2.0 ~force in
  let i2 = Particles.step soa ~cutoff:2.0 ~force in
  checki "same interactions" i1 i2;
  checkb "same trajectories" true (Particles.equal_contents aos soa)

let test_particles_map_kernel () =
  let s = Particles.create ~n:4 [ "x"; "v" ] in
  List.iteri (fun p v -> Particles.set s p "x" v) [ 1.0; 2.0; 3.0; 4.0 ];
  Particles.map_kernel s ~reads:[ "x" ] ~writes:[ "v" ]
    (fun vals -> [ 2.0 *. List.hd vals ]);
  checkb "doubled into v" true
    (List.for_all (fun p -> Particles.get s p "v" = 2.0 *. Particles.get s p "x")
       [ 0; 1; 2; 3 ])

let test_particles_pairwise_cutoff () =
  let s = Particles.create ~n:3 Particles.standard_attrs in
  (* particles at 0, 1 and 100: only the first pair interacts at cutoff 2 *)
  Particles.set s 0 "x" 0.0;
  Particles.set s 1 "x" 1.0;
  Particles.set s 2 "x" 100.0;
  let pairs = Particles.pairwise_kernel s ~cutoff:2.0 (fun dx _ _ -> (dx, 0.0)) in
  checki "one pair in range" 1 pairs;
  (* symmetric forces: total momentum change is zero *)
  let total_fx =
    Particles.get s 0 "fx" +. Particles.get s 1 "fx" +. Particles.get s 2 "fx"
  in
  checkb "forces symmetric" true (Float.abs total_fx < 1e-12)

let test_particles_layout_model () =
  let s = Particles.create ~n:1000 Particles.standard_attrs in
  (* a kernel touching 2 of 8 fields: SoA should win clearly *)
  let sp = Particles.soa_speedup s ~reads:[ "x" ] ~writes:[ "x" ] in
  checkb "SoA wins sparse-field kernels" true (sp > 2.0);
  checkb "recommends SoA" true
    (Particles.recommend_layout s ~reads:[ "x" ] ~writes:[ "x" ] = Particles.Soa);
  (* touching every field: AoS is fine *)
  let all = s.Particles.attrs in
  checkb "AoS ok for dense kernels" true
    (Particles.recommend_layout s ~reads:all ~writes:all = Particles.Aos)

(* ---- dataflow graphs -------------------------------------------------------------- *)

let build_pipeline () =
  let g = Dataflow.create "wind" in
  let raw =
    Dataflow.source g "ensemble" ~bytes:(1 lsl 20)
      ~annots:[ Annot.Access Annot.Streaming; Annot.Locality "cloud" ]
  in
  let hist = Dataflow.source g "history" ~bytes:(1 lsl 22) in
  let a = Tensor_expr.input "x" [ 64; 64 ] in
  let feat =
    Dataflow.task g "features"
      (Dataflow.Tensor_kernel (Tensor_expr.relu (Tensor_expr.matmul a a)))
      ~deps:[ raw ]
  in
  let train =
    Dataflow.task g "train"
      (Dataflow.Ai_model { layers = [ 64; 32; 1 ]; activation = "relu" })
      ~deps:[ feat; hist ]
      ~annots:[ Annot.Security Everest_ir.Dialect_sec.Confidential ]
  in
  let post =
    Dataflow.task g "post"
      (Dataflow.External { lang = "c++"; est_flops = 10_000; est_bytes = 512 })
      ~deps:[ train ]
  in
  Dataflow.sink g "forecast" post;
  g

let test_graph_build () =
  let g = build_pipeline () in
  let nodes = Dataflow.nodes g in
  checki "5 nodes" 5 (List.length nodes);
  (match Dataflow.validate g with
  | Ok () -> ()
  | Error es -> Alcotest.failf "validate: %s" (String.concat "; " es));
  let flops name =
    match List.find_opt (fun n -> n.Dataflow.nname = name) nodes with
    | Some n -> Dataflow.kernel_flops n.Dataflow.kernel
    | None -> Alcotest.failf "no node %s" name
  in
  checki "sources cost nothing" 0 (flops "ensemble");
  checki "train costs its layers" ((2 * 64 * 32) + (2 * 32 * 1)) (flops "train");
  checki "external cost as declared" 10_000 (flops "post")

let test_graph_duplicate_names () =
  let g = Dataflow.create "dup" in
  let _ = Dataflow.source g "x" ~bytes:8 in
  let _ = Dataflow.source g "x" ~bytes:8 in
  match Dataflow.validate g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate names must be rejected"

let test_graph_lowering () =
  let g = build_pipeline () in
  let ctx = Ir.ctx () in
  let m = Lower.lower_graph ctx g in
  (match Verify.check_module m with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "module invalid: %s" (Verify.errors_to_string ds));
  (* one kernel func for the tensor kernel + main *)
  checki "two functions" 2 (List.length m.Ir.funcs);
  (* round-trip the whole module through the printer/parser *)
  let s = Everest_ir.Printer.module_to_string m in
  let m2 = Everest_ir.Parser.parse_module (Ir.ctx ()) s in
  Alcotest.check Alcotest.string "module roundtrip" s
    (Everest_ir.Printer.module_to_string m2)

let () =
  Alcotest.run "everest_dsl"
    [
      ( "shapes",
        [ Alcotest.test_case "inference" `Quick test_shapes;
          Alcotest.test_case "errors" `Quick test_shape_errors ] );
      ( "eval",
        [ Alcotest.test_case "composite" `Quick test_eval;
          Alcotest.test_case "matmul=contract" `Quick test_eval_matmul_contract_agree;
          Alcotest.test_case "reduce" `Quick test_eval_reduce ] );
      ( "cost",
        [ Alcotest.test_case "flops" `Quick test_flops;
          Alcotest.test_case "inputs dedup" `Quick test_inputs_dedup ] );
      ("annot", [ Alcotest.test_case "roundtrip" `Quick test_annot_roundtrip ]);
      ( "lower",
        [ Alcotest.test_case "elementwise" `Quick test_lower_simple;
          Alcotest.test_case "matmul chain" `Quick test_lower_matmul_chain;
          Alcotest.test_case "contract" `Quick test_lower_contract;
          Alcotest.test_case "scalar result" `Quick test_lower_scalar_result;
          QCheck_alcotest.to_alcotest prop_lowering_preserves_semantics ] );
      ( "model-import",
        [ Alcotest.test_case "shapes" `Quick test_import_shapes;
          Alcotest.test_case "evaluates" `Quick test_import_evaluates;
          Alcotest.test_case "errors" `Quick test_import_errors;
          Alcotest.test_case "compiles" `Quick test_import_compiles ] );
      ( "particles",
        [ Alcotest.test_case "layout equivalence" `Quick test_particles_layout_equivalence;
          Alcotest.test_case "map kernel" `Quick test_particles_map_kernel;
          Alcotest.test_case "pairwise cutoff" `Quick test_particles_pairwise_cutoff;
          Alcotest.test_case "layout model" `Quick test_particles_layout_model ] );
      ( "dataflow",
        [ Alcotest.test_case "build+validate" `Quick test_graph_build;
          Alcotest.test_case "duplicate names" `Quick test_graph_duplicate_names;
          Alcotest.test_case "lower graph" `Quick test_graph_lowering ] );
    ]
