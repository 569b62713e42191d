(* Tests for everest_compiler: cost models, variant generation, Pareto
   filtering, DSE strategies, backend emission and the end-to-end pipeline. *)

open Everest_compiler
open Everest_dsl

let () = Everest_ir.Registry.register_all ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let matmul_expr n =
  Tensor_expr.matmul (Tensor_expr.input "a" [ n; n ]) (Tensor_expr.input "b" [ n; n ])

let stream_expr n =
  Tensor_expr.relu
    (Tensor_expr.add (Tensor_expr.input "x" [ n ]) (Tensor_expr.input "y" [ n ]))

(* ---- cost model ---------------------------------------------------------------- *)

let test_tiling_helps_contraction () =
  let e = matmul_expr 256 in
  let base = { Cost_model.tile = None; layout = Cost_model.Soa; threads = 1 } in
  let tiled = { base with Cost_model.tile = Some 32 } in
  let cpu = Everest_platform.Spec.power9 in
  checkb "tiled faster" true (Cost_model.sw_time cpu e tiled < Cost_model.sw_time cpu e base);
  checkb "traffic reduced" true
    (Cost_model.traffic_bytes e tiled < Cost_model.traffic_bytes e base)

let test_layout_matters_for_streaming () =
  let e = stream_expr 1_000_000 in
  let aos = { Cost_model.tile = None; layout = Cost_model.Aos; threads = 8 } in
  let soa = { aos with Cost_model.layout = Cost_model.Soa } in
  let cpu = Everest_platform.Spec.power9 in
  checkb "soa faster for streaming" true
    (Cost_model.sw_time cpu e soa < Cost_model.sw_time cpu e aos);
  checkb "no tiling benefit claimed" false (Cost_model.has_contraction e)

let test_threads_scale_compute () =
  let e = matmul_expr 512 in
  let p t = { Cost_model.tile = Some 64; layout = Cost_model.Soa; threads = t } in
  let cpu = Everest_platform.Spec.power9 in
  checkb "8 threads faster than 1" true
    (Cost_model.sw_time cpu e (p 8) < Cost_model.sw_time cpu e (p 1))

(* ---- variants -------------------------------------------------------------------- *)

let test_variant_generation () =
  let e = matmul_expr 128 in
  let vs = Variants.generate e in
  (* 4 tiles x 2 layouts x 5 threads + up to 4 hw unrolls *)
  checkb "rich space" true (List.length vs >= 40);
  checkb "has hw variants" true
    (List.exists
       (fun v -> match v.Variants.impl with Variants.Hw _ -> true | _ -> false)
       vs);
  checkb "positive times" true (List.for_all (fun v -> v.Variants.time_s > 0.0) vs)

let test_streaming_has_no_tiles () =
  let e = stream_expr 4096 in
  let vs = Variants.sw_variants Variants.default_target e in
  checkb "no tiled variants for streaming" true
    (List.for_all
       (fun v ->
         match v.Variants.impl with
         | Variants.Sw p -> p.Cost_model.tile = None
         | _ -> false)
       vs)

let test_pareto () =
  let mk name t e a =
    { Variants.vname = name; impl = Variants.Sw { Cost_model.tile = None; layout = Cost_model.Aos; threads = 1 };
      time_s = t; energy_j = e; area_luts = a }
  in
  let vs = [ mk "good" 1.0 1.0 0; mk "dominated" 2.0 2.0 0; mk "tradeoff" 0.5 3.0 0 ] in
  let p = Variants.pareto vs in
  checki "dominated removed" 2 (List.length p);
  checkb "good kept" true (List.exists (fun v -> v.Variants.vname = "good") p);
  checkb "tradeoff kept" true (List.exists (fun v -> v.Variants.vname = "tradeoff") p)

let test_dift_forced_by_annotation () =
  let e = matmul_expr 64 in
  let vs =
    Variants.generate ~annots:[ Annot.Security Everest_ir.Dialect_sec.Secret ] e
  in
  let hw =
    List.filter
      (fun v -> match v.Variants.impl with Variants.Hw _ -> true | _ -> false)
      vs
  in
  checkb "hw variants are DIFT-instrumented" true
    (hw <> []
    && List.for_all
         (fun v ->
           String.length v.Variants.vname >= 5
           && String.sub v.Variants.vname (String.length v.Variants.vname - 5) 5
              = "-dift")
         hw)

(* ---- DSE -------------------------------------------------------------------------- *)

let test_dse_exhaustive_vs_sampled () =
  let e = matmul_expr 128 in
  let oracle = Dse.exhaustive e in
  let sampled = Dse.sampled ~budget:10 e in
  checkb "sampling explores less" true (sampled.Dse.explored < oracle.Dse.explored);
  checkb "sampling no better than oracle" true (Dse.quality sampled oracle >= 1.0);
  let greedy = Dse.greedy e in
  checkb "greedy explores less than exhaustive" true
    (greedy.Dse.explored <= oracle.Dse.explored);
  checkb "greedy quality sane" true (Dse.quality greedy oracle >= 1.0)

let test_dse_hw_wins_for_big_matmul () =
  (* large dense matmul has high arithmetic intensity: an FPGA variant
     should be on the Pareto front *)
  let e = matmul_expr 512 in
  let r = Dse.exhaustive e in
  checkb "hw on pareto front" true
    (List.exists
       (fun v -> match v.Variants.impl with Variants.Hw _ -> true | _ -> false)
       r.Dse.variants)

(* ---- backend ----------------------------------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_sycl_emission () =
  let e = matmul_expr 64 in
  let code =
    Backend.emit_sycl ~kernel:"mm"
      e { Cost_model.tile = Some 32; layout = Cost_model.Soa; threads = 4 }
  in
  checkb "mentions kernel" true (contains ~sub:"void mm(" code);
  checkb "mentions tile" true (contains ~sub:"TILE = 32" code);
  checkb "mentions layout" true (contains ~sub:"layout: soa" code)

(* The runtime receives the Pareto variants as operating points carrying
   each variant's time, energy and area. *)
let test_metadata () =
  let r = Dse.exhaustive (matmul_expr 64) in
  let k = Variants.to_knowledge ~kernel:"mm" r.Dse.variants in
  let module K = Everest_autotune.Knowledge in
  checki "one entry per variant" (List.length r.Dse.variants)
    (List.length k.K.points);
  checkb "time, energy and area" true
    (List.for_all2
       (fun (v : Variants.variant) (p : K.point) ->
         p.K.variant = v.Variants.vname
         && K.metric p "time_s" = Some v.Variants.time_s
         && K.metric p "energy_j" = Some v.Variants.energy_j
         && K.metric p "area_luts" = Some (float_of_int v.Variants.area_luts))
       r.Dse.variants k.K.points)

(* ---- pipeline --------------------------------------------------------------------- *)

let pipeline_graph () =
  let g = Dataflow.create "app" in
  let src = Dataflow.source g "input" ~bytes:(1 lsl 16) in
  let a = Tensor_expr.input "x" [ 64; 64 ] in
  let k1 =
    Dataflow.task g "mm" (Dataflow.Tensor_kernel (Tensor_expr.matmul a a)) ~deps:[ src ]
  in
  let k2 =
    Dataflow.task g "act"
      (Dataflow.Tensor_kernel (Tensor_expr.relu (Tensor_expr.input "y" [ 64; 64 ])))
      ~deps:[ k1 ]
  in
  Dataflow.sink g "out" k2;
  g

let test_pipeline_compile () =
  let app = Pipeline.compile (pipeline_graph ()) in
  checki "two compiled kernels" 2 (List.length app.Pipeline.kernels);
  checkb "variants generated" true (Pipeline.total_variants app >= 2);
  checki "dag mirrors graph" 3 (Everest_workflow.Dag.size app.Pipeline.dag);
  checkb "passes ran" true (List.length app.Pipeline.pass_reports > 0);
  (* compiled DAG executes on the demonstrator *)
  let _, stats =
    Everest_workflow.Executor.run_on_demonstrator ~policy:"heft-locality"
      app.Pipeline.dag
  in
  checkb "compiled app runs" true (stats.Everest_workflow.Executor.makespan > 0.0)

let test_pipeline_rejects_invalid () =
  let g = Dataflow.create "dup" in
  let _ = Dataflow.source g "x" ~bytes:8 in
  let _ = Dataflow.source g "x" ~bytes:8 in
  match Pipeline.compile g with
  | exception Pipeline.Compile_error _ -> ()
  | _ -> Alcotest.fail "invalid graph must be rejected"

let test_pipeline_knowledge_bridges_to_tuner () =
  let app = Pipeline.compile (pipeline_graph ()) in
  let ck = List.hd app.Pipeline.kernels in
  let goal = Everest_autotune.Goal.make (Everest_autotune.Goal.Minimize "time_s") in
  match Everest_autotune.Selector.select ck.Pipeline.knowledge goal ~features:[] with
  | Some d ->
      checkb "selected a generated variant" true
        (String.length d.Everest_autotune.Selector.point.Everest_autotune.Knowledge.variant > 0)
  | None -> Alcotest.fail "knowledge must be selectable"

(* ---- tensor-to-loops lowering ------------------------------------------------------ *)

module Interp = Everest_ir.Interp
module Verify = Everest_ir.Verify
module Ir = Everest_ir.Ir

let run_both e env =
  (* tensor-level function vs loop-level function on the same inputs *)
  let ctx = Ir.ctx () in
  let f_tensor = Everest_dsl.Lower.lower_expr ~fname:"t" ctx e in
  let f_loops = Loops.lower_func ctx f_tensor in
  (match Verify.verify_func { f_loops with Ir.fname = "l" } with
  | [] -> ()
  | ds -> Alcotest.failf "lowered invalid: %s" (Verify.errors_to_string ds));
  let m =
    Ir.modul "m" [ f_tensor; { f_loops with Ir.fname = "l" } ]
  in
  let args_tensor =
    List.map
      (fun (n, _) ->
        let t = List.assoc n env in
        Interp.tensor_of_array t.Tensor_expr.dims t.Tensor_expr.data)
      (Tensor_expr.inputs e)
  in
  (* lowered arguments are linearized 1-D buffers *)
  let args_loops =
    List.map
      (fun (n, _) ->
        let t = List.assoc n env in
        Interp.tensor_of_array
          [ Array.length t.Tensor_expr.data ]
          t.Tensor_expr.data)
      (Tensor_expr.inputs e)
  in
  let r_tensor, _ = Interp.run_func ctx m "t" args_tensor in
  let r_loops, _ = Interp.run_func ctx m "l" args_loops in
  (List.hd r_tensor, List.hd r_loops)

let rt_data = function
  | Interp.RBuf b -> b.Interp.data
  | Interp.RFloat f -> [| f |]
  | _ -> Alcotest.fail "unexpected result kind"

let check_equiv e env =
  let a, b = run_both e env in
  let da = rt_data a and db = rt_data b in
  Alcotest.check Alcotest.int "same element count" (Array.length da)
    (Array.length db);
  checkb "same values" true
    (Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9 *. (1.0 +. Float.abs x)) da db)

let t22v v = Tensor_expr.tensor [ 2; 2 ] v

let test_loops_matmul () =
  let a = Tensor_expr.input "a" [ 2; 3 ] in
  let b = Tensor_expr.input "b" [ 3; 2 ] in
  check_equiv (Tensor_expr.matmul a b)
    [ ("a", Tensor_expr.tensor [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |]);
      ("b", Tensor_expr.tensor [ 3; 2 ] [| 7.; 8.; 9.; 10.; 11.; 12. |]) ]

let test_loops_elementwise_chain () =
  let x = Tensor_expr.input "x" [ 2; 2 ] in
  let y = Tensor_expr.input "y" [ 2; 2 ] in
  check_equiv
    Tensor_expr.(relu O.((x * y) - input "c" [ 2; 2 ]))
    [ ("x", t22v [| 1.; -2.; 3.; 0.5 |]); ("y", t22v [| 2.; 2.; 2.; 2. |]);
      ("c", t22v [| 1.; 1.; 1.; 1. |]) ]

(* No DSL form lowers to a transpose or a reduction, so the tensor-level
   function comes from IR text. *)
let test_loops_transpose_reduce () =
  let ctx = Ir.ctx () in
  let src =
    {|module @m {
func @t(%0: tensor<3x2xf64>) -> (f64) {
  %1 = "tensor.transpose"(%0) : (tensor<3x2xf64>) -> (tensor<2x3xf64>)
  %2 = "tensor.reduce"(%1) {kind = "add"} : (tensor<2x3xf64>) -> (f64)
  "func.return"(%2) : (f64) -> ()
}
}|}
  in
  let f_tensor = List.hd (Everest_ir.Parser.parse_module ctx src).Ir.funcs in
  let f_loops = { (Loops.lower_func ctx f_tensor) with Ir.fname = "l" } in
  (match Verify.verify_func f_loops with
  | [] -> ()
  | ds -> Alcotest.failf "lowered invalid: %s" (Verify.errors_to_string ds));
  let m = Ir.modul "m" [ f_tensor; f_loops ] in
  let data = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let run name shape =
    fst (Interp.run_func ctx m name [ Interp.tensor_of_array shape data ])
  in
  let r_tensor = run "t" [ 3; 2 ] and r_loops = run "l" [ 6 ] in
  checkb "same sum" true (rt_data (List.hd r_tensor) = [| 21.0 |]);
  checkb "loops agree" true (rt_data (List.hd r_loops) = [| 21.0 |])

let test_loops_sigmoid () =
  let x = Tensor_expr.input "x" [ 4 ] in
  check_equiv (Tensor_expr.sigmoid x)
    [ ("x", Tensor_expr.tensor [ 4 ] [| -2.0; -0.5; 0.5; 2.0 |]) ]

(* random well-shaped 4x4 expressions over inputs a and b *)
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
              map Tensor_expr.relu sub;
              map (Tensor_expr.scale 0.5) sub ]))

let gen_env =
  [ ("a", Tensor_expr.tensor [ 4; 4 ] (Array.init 16 (fun i -> float_of_int (i mod 5) -. 2.0)));
    ("b", Tensor_expr.tensor [ 4; 4 ] (Array.init 16 (fun i -> 0.5 *. float_of_int (7 - i))));
    ("c", Tensor_expr.tensor [ 4; 4 ] (Array.make 16 1.0)) ]

let prop_loops_preserve_semantics =
  QCheck.Test.make ~count:40 ~name:"tensor-to-loops preserves semantics"
    (QCheck.make ~print:Tensor_expr.fingerprint gen_expr) (fun e ->
      let env = gen_env in
      let a, b = run_both e env in
      let da = rt_data a and db = rt_data b in
      Array.length da = Array.length db
      && Array.for_all2
           (fun x y -> Float.abs (x -. y) <= 1e-6 *. (1.0 +. Float.abs x))
           da db)

(* Both legs of Fig. 1 see the same per-element body: the deepest loop of
   the software lowering and the hardware leg's DFG each load the two
   operand elements, and that DFG synthesizes. *)
let test_loops_feed_hls () =
  let ctx = Ir.ctx () in
  let a = Tensor_expr.input "a" [ 8; 8 ] in
  let e = Tensor_expr.matmul a a in
  let lowered = Loops.lower_func ctx (Everest_dsl.Lower.lower_expr ctx e) in
  (* (depth, body) of the deepest scf.for body *)
  let rec deepest depth (ops : Ir.op list) =
    List.fold_left
      (fun best (o : Ir.op) ->
        match o.Ir.regions with
        | [ [ b ] ] when String.equal o.Ir.name "scf.for" ->
            let d, body = deepest (depth + 1) b.Ir.body in
            if d > fst best then (d, body) else best
        | _ -> best)
      (depth, ops) ops
  in
  let _, body = deepest 0 lowered.Ir.fbody in
  let loads =
    List.length
      (List.filter (fun (o : Ir.op) -> String.equal o.Ir.name "memref.load") body)
  in
  let dfg = Hw_lower.dfg_of_expr e in
  checki "two loads per step" 2 loads;
  checki "the DFG loads the same" loads
    (Everest_hls.Cdfg.count_class dfg Everest_hls.Cdfg.Load);
  let d = Everest_hls.Hls.synthesize ~name:"mm_body" dfg in
  checkb "synthesizes" true
    (d.Everest_hls.Hls.estimate.Everest_hls.Estimate.cycles > 0)

(* ---- loop fusion -------------------------------------------------------------------- *)

let lowered_of e =
  let ctx = Ir.ctx () in
  (ctx, Loops.lower_func ctx (Everest_dsl.Lower.lower_expr ctx e))

let run_lowered_buf ctx f env e =
  let m = Ir.modul "m" [ f ] in
  let args =
    List.map
      (fun (n, _) ->
        let t = List.assoc n env in
        Interp.tensor_of_array [ Array.length t.Tensor_expr.data ] t.Tensor_expr.data)
      (Tensor_expr.inputs e)
  in
  let rets, _ = Interp.run_func ctx m f.Ir.fname args in
  rt_data (List.hd rets)

let test_fusion_merges_elementwise () =
  let x = Tensor_expr.input "x" [ 4; 4 ] in
  let y = Tensor_expr.input "y" [ 4; 4 ] in
  let e = Tensor_expr.relu (Tensor_expr.add x y) in
  let ctx, f = lowered_of e in
  checkb "two loops before" true (Loop_fusion.count_loops f = 2);
  let f' = Loop_fusion.fuse_func ctx f in
  checki "one loop after" 1 (Loop_fusion.count_loops f');
  (match Verify.verify_func f' with
  | [] -> ()
  | ds -> Alcotest.failf "fused invalid: %s" (Verify.errors_to_string ds));
  let env =
    [ ("x", Tensor_expr.tensor [ 4; 4 ] (Array.init 16 (fun i -> float_of_int i -. 8.0)));
      ("y", Tensor_expr.tensor [ 4; 4 ] (Array.init 16 (fun i -> 0.5 *. float_of_int i))) ]
  in
  let before = run_lowered_buf ctx f env e in
  let after = run_lowered_buf ctx f' env e in
  checkb "semantics preserved" true
    (Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) before after)

let test_fusion_chain () =
  let x = Tensor_expr.input "x" [ 8 ] in
  let e =
    Tensor_expr.sigmoid (Tensor_expr.scale 2.0 (Tensor_expr.relu (Tensor_expr.add x x)))
  in
  let ctx, f = lowered_of e in
  checkb "four loops before" true (Loop_fusion.count_loops f >= 3);
  let f' = Loop_fusion.fuse_func ctx f in
  checki "fully fused" 1 (Loop_fusion.count_loops f');
  let env = [ ("x", Tensor_expr.tensor [ 8 ] (Array.init 8 (fun i -> float_of_int (i - 4)))) ] in
  let before = run_lowered_buf ctx f env e in
  let after = run_lowered_buf ctx f' env e in
  checkb "semantics preserved" true
    (Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) before after)

let test_fusion_skips_matmul () =
  (* the matmul nest has nested loops and iter args: must not fuse *)
  let a = Tensor_expr.input "a" [ 4; 4 ] in
  let e = Tensor_expr.relu (Tensor_expr.matmul a a) in
  let ctx, f = lowered_of e in
  let n_before = Loop_fusion.count_loops f in
  let f' = Loop_fusion.fuse_func ctx f in
  (* the elementwise loop cannot merge into the matmul's outer loop *)
  checki "loop count unchanged" n_before (Loop_fusion.count_loops f');
  let env = [ ("a", Tensor_expr.tensor [ 4; 4 ] (Array.init 16 float_of_int)) ] in
  let before = run_lowered_buf ctx f env e in
  let after = run_lowered_buf ctx f' env e in
  checkb "still correct" true
    (Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) before after)

let prop_fusion_preserves_semantics =
  QCheck.Test.make ~count:40 ~name:"loop fusion preserves semantics"
    (QCheck.make ~print:Tensor_expr.fingerprint gen_expr) (fun e ->
      let env = gen_env in
      let ctx, f = lowered_of e in
      let f' = Loop_fusion.fuse_func ctx f in
      let before = run_lowered_buf ctx f env e in
      let after = run_lowered_buf ctx f' env e in
      Loop_fusion.count_loops f' <= Loop_fusion.count_loops f
      && Array.for_all2
           (fun x y -> Float.abs (x -. y) <= 1e-6 *. (1.0 +. Float.abs x))
           before after)

(* property: pareto front never empty, and exactly the undominated
   variants *)
let prop_pareto_sound =
  QCheck.Test.make ~count:20 ~name:"pareto front sound on random matmul sizes"
    QCheck.(make Gen.(int_range 8 128))
    (fun n ->
      let e = matmul_expr n in
      let vs = Variants.generate e in
      let p = Variants.pareto vs in
      p <> []
      && p = Variants.pareto_naive vs)

let () =
  Alcotest.run "everest_compiler"
    [
      ( "cost-model",
        [ Alcotest.test_case "tiling" `Quick test_tiling_helps_contraction;
          Alcotest.test_case "layout" `Quick test_layout_matters_for_streaming;
          Alcotest.test_case "threads" `Quick test_threads_scale_compute ] );
      ( "variants",
        [ Alcotest.test_case "generation" `Quick test_variant_generation;
          Alcotest.test_case "streaming tiles" `Quick test_streaming_has_no_tiles;
          Alcotest.test_case "pareto" `Quick test_pareto;
          Alcotest.test_case "dift forced" `Quick test_dift_forced_by_annotation;
          QCheck_alcotest.to_alcotest prop_pareto_sound ] );
      ( "dse",
        [ Alcotest.test_case "strategies" `Quick test_dse_exhaustive_vs_sampled;
          Alcotest.test_case "hw wins big matmul" `Quick test_dse_hw_wins_for_big_matmul ] );
      ( "backend",
        [ Alcotest.test_case "sycl" `Quick test_sycl_emission;
          Alcotest.test_case "metadata" `Quick test_metadata ] );
      ( "loops",
        [ Alcotest.test_case "matmul" `Quick test_loops_matmul;
          Alcotest.test_case "elementwise chain" `Quick test_loops_elementwise_chain;
          Alcotest.test_case "transpose+reduce" `Quick test_loops_transpose_reduce;
          Alcotest.test_case "sigmoid" `Quick test_loops_sigmoid;
          Alcotest.test_case "feeds HLS" `Quick test_loops_feed_hls;
          QCheck_alcotest.to_alcotest prop_loops_preserve_semantics ] );
      ( "fusion",
        [ Alcotest.test_case "merges elementwise" `Quick test_fusion_merges_elementwise;
          Alcotest.test_case "chain" `Quick test_fusion_chain;
          Alcotest.test_case "skips matmul" `Quick test_fusion_skips_matmul;
          QCheck_alcotest.to_alcotest prop_fusion_preserves_semantics ] );
      ( "pipeline",
        [ Alcotest.test_case "compile+run" `Quick test_pipeline_compile;
          Alcotest.test_case "rejects invalid" `Quick test_pipeline_rejects_invalid;
          Alcotest.test_case "knowledge bridge" `Quick test_pipeline_knowledge_bridges_to_tuner ] );
    ]
