(* The end-to-end compilation pipeline of Fig. 1:

     DSL workflow -> unified IR (front-end)
                  -> canonicalized IR (middle-end passes)
                  -> per-kernel variants via DSE (middle-end exploration)
                  -> executable workflow DAG + knowledge + emitted code
                     (back-end)

   The produced [compiled_app] is what the EVEREST SDK hands to the
   virtualized runtime. *)

open Everest_dsl

type compiled_kernel = {
  ck_name : string;
  expr : Tensor_expr.expr;
  annots : Annot.t list;
  dse : Dse.result;
  knowledge : Everest_autotune.Knowledge.t;
  sycl : string;  (* emitted code of the best software variant *)
}

type compiled_app = {
  app_name : string;
  ir : Everest_ir.Ir.modul;  (* unified, canonicalized module *)
  kernels : compiled_kernel list;
  dag : Everest_workflow.Dag.t;
  pass_reports : Everest_ir.Pass.report list;
  violations : (string * Everest_security.Ift.flow_violation) list;
  lint : Everest_analysis.Lint.diag list;
}

exception Compile_error of string

module Lint = Everest_analysis.Lint

(* Lint gate: error diagnostics abort the compile by raising. *)
let lint_gate ~stage m =
  let ds = Lint.run m in
  (match Lint.errors ds with
  | [] -> ()
  | errs ->
      raise
        (Compile_error (Fmt.str "lint (%s):@.%s" stage (Lint.render_text errs))));
  ds

let count_lint_warnings ds =
  List.iter
    (fun (d : Lint.diag) ->
      if d.Lint.severity = Lint.Warning then
        Everest_telemetry.Metrics.inc
          (Everest_telemetry.Metrics.counter
             ~labels:[ ("code", d.Lint.code) ]
             ~help:"Lint warnings observed during compilation"
             "compile_lint_warnings_total"))
    ds

let compile ?cache ?(lint = true)
    (g : Dataflow.graph) : compiled_app =
  (match Dataflow.validate g with
  | Ok () -> ()
  | Error es -> raise (Compile_error (String.concat "; " es)));
  Everest_ir.Registry.register_all ();
  let ctx = Everest_ir.Ir.ctx () in
  (* front-end: unified IR *)
  let ir0 = Lower.lower_graph ctx g in
  (match Everest_ir.Verify.check_module ir0 with
  | Ok () -> ()
  | Error ds ->
      raise (Compile_error (Everest_ir.Verify.errors_to_string ds)));
  (* pre-flight static analysis over the freshly lowered module;
     warnings are counted in telemetry (labelled by rule code) and kept
     on the compiled app for inspection *)
  let lint_diags = if lint then lint_gate ~stage:"pre-flight" ir0 else [] in
  count_lint_warnings lint_diags;
  (* middle-end: canonicalization pipeline; the lint gate is pre-flight
     only *)
  let ir, pass_reports =
    Everest_ir.Pass.run_pipeline ctx Everest_ir.Transforms.standard_pipeline
      ir0
  in
  (* static security audit *)
  let violations = Everest_security.Ift.analyze_module ir in
  (* per-kernel DSE *)
  let kernels =
    List.filter_map
      (fun (n : Dataflow.node) ->
        match n.Dataflow.kernel with
        | Some (Dataflow.Tensor_kernel e) ->
            let dse = Dse.exhaustive ?cache ~annots:n.Dataflow.annots e in
            let knowledge =
              Variants.to_knowledge ~kernel:n.Dataflow.nname dse.Dse.variants
            in
            let sycl =
              match dse.Dse.best_time with
              | Some { Variants.impl = Variants.Sw p; _ } ->
                  Backend.emit_sycl ~kernel:n.Dataflow.nname e p
              | _ -> (
                  (* best is hardware: emit the best software fallback *)
                  let sw =
                    List.filter
                      (fun v ->
                        match v.Variants.impl with
                        | Variants.Sw _ -> true
                        | _ -> false)
                      dse.Dse.variants
                  in
                  match sw with
                  | { Variants.impl = Variants.Sw p; _ } :: _ ->
                      Backend.emit_sycl ~kernel:n.Dataflow.nname e p
                  | _ -> "// no software variant\n")
            in
            Some { ck_name = n.Dataflow.nname; expr = e;
                   annots = n.Dataflow.annots; dse; knowledge; sycl }
        | _ -> None)
      (Dataflow.nodes g)
  in
  (* back-end: executable DAG with one impl per Pareto variant *)
  let find_kernel name =
    List.find_opt (fun k -> String.equal k.ck_name name) kernels
  in
  let tasks =
    List.map
      (fun (n : Dataflow.node) ->
        let impls =
          match n.Dataflow.kernel with
          | None -> [ Everest_workflow.Dag.Cpu { flops = 1e6; bytes = float_of_int n.Dataflow.out_bytes; threads = 1 } ]
          | Some (Dataflow.Tensor_kernel e) -> (
              match find_kernel n.Dataflow.nname with
              | Some ck ->
                  List.map (Variants.to_dag_impl e) ck.dse.Dse.variants
              | None -> [])
          | Some (Dataflow.External { est_flops; est_bytes; _ }) ->
              [ Everest_workflow.Dag.Cpu
                  { flops = float_of_int est_flops;
                    bytes = float_of_int est_bytes; threads = 1 } ]
          | Some (Dataflow.Ai_model _ as k) ->
              [ Everest_workflow.Dag.Cpu
                  { flops = float_of_int (Dataflow.kernel_flops (Some k));
                    bytes = float_of_int n.Dataflow.out_bytes; threads = 4 } ]
        in
        let pinned =
          List.find_map
            (function Annot.Locality l -> Some l | _ -> None)
            n.Dataflow.annots
          |> fun loc ->
          match loc with
          | Some l when String.length l > 5 && String.sub l 0 5 = "node:" ->
              Some (String.sub l 5 (String.length l - 5))
          | _ -> None
        in
        Everest_workflow.Dag.task ~id:n.Dataflow.nid ~name:n.Dataflow.nname
          ~inputs:(List.map (fun (d : Dataflow.node) -> d.Dataflow.nid) n.Dataflow.deps)
          ~out_bytes:n.Dataflow.out_bytes ~impls ~pinned ())
      (Dataflow.nodes g)
  in
  let dag = Everest_workflow.Dag.create g.Dataflow.gname tasks in
  { app_name = g.Dataflow.gname; ir; kernels; dag; pass_reports; violations;
    lint = lint_diags }

let total_variants app =
  List.fold_left
    (fun acc k -> acc + List.length k.dse.Dse.variants)
    0 app.kernels

let report ppf app =
  Fmt.pf ppf "app %s: %d kernels, %d Pareto variants, %d IR ops, %d violations@."
    app.app_name (List.length app.kernels) (total_variants app)
    (Everest_ir.Ir.module_op_count app.ir)
    (List.length app.violations);
  List.iter
    (fun k ->
      Fmt.pf ppf "  kernel %-12s explored=%-3d pareto=%d best=%a@." k.ck_name
        k.dse.Dse.explored
        (List.length k.dse.Dse.variants)
        Fmt.(option Variants.pp)
        k.dse.Dse.best_time)
    app.kernels
