(* Pass manager: named module-to-module transformations with an inter-pass
   lint hook and timing, like MLIR's pass pipeline. *)

type t = { pass_name : string; run : Ir.ctx -> Ir.modul -> Ir.modul }

let make pass_name run = { pass_name; run }

type report = { name : string; seconds : float; ops_before : int; ops_after : int }

let pp_report ppf r =
  Fmt.pf ppf "%-24s %8.4fs  ops %d -> %d" r.name r.seconds r.ops_before
    r.ops_after

let run_pipeline ctx passes m =
  let reports = ref [] in
  let m =
    List.fold_left
      (fun m (p : t) ->
        let before = Ir.module_op_count m in
        let t0 = Sys.time () in
        let m' = p.run ctx m in
        let dt = Sys.time () -. t0 in
        reports :=
          { name = p.pass_name; seconds = dt; ops_before = before;
            ops_after = Ir.module_op_count m' }
          :: !reports;
        m')
      m passes
  in
  (m, List.rev !reports)
