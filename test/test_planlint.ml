(* Tests for Everest_workflow.Planlint: the static plan sanitizer.

   The mutation tests are the heart: every EV1xx defect class is seeded
   into an otherwise-valid plan and the analyzer must flag it with the
   right code (no false negatives), while QCheck asserts all four shipped
   schedulers produce plans without lint errors over random generated DAGs
   (no false positives on anything the system itself emits).  Defects of
   the DAG itself (dangling, repeated or forward inputs, id gaps) cannot
   reach the analyzer: [Dag.create] rejects them, as test_workflow's
   [error messages] case checks. *)

open Everest_workflow
open Everest_platform
module Lint = Everest_analysis.Lint
module Slo = Everest_observe.Slo

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cpu = Dag.Cpu { flops = 1e9; bytes = 4096.0; threads = 1 }

let est =
  { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
    cycles = 100_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 5.0 }

let fpga b =
  Dag.Fpga { bitstream = b; estimate = est; in_bytes = 4096; out_bytes = 1024 }

let chain n =
  Dag.create "chain"
    (List.init n (fun i ->
         Dag.task ~id:i ~name:(Printf.sprintf "c%d" i)
           ~inputs:(if i = 0 then [] else [ i - 1 ])
           ~out_bytes:4096 ~impls:[ cpu ] ()))

let demonstrator () = Cluster.everest_demonstrator ()

let plan_of ?(policy = "round-robin") c d =
  match Scheduler.by_name policy with
  | Some f -> f c d
  | None -> Alcotest.failf "unknown policy %s" policy

let has_code code ds = List.exists (fun d -> String.equal d.Lint.code code) ds

let has_error_code code ds =
  List.exists
    (fun d -> String.equal d.Lint.code code && d.Lint.severity = Lint.Error)
    ds

(* ---- reachability index ---------------------------------------------------- *)

let test_reach_chain () =
  let c = demonstrator () in
  let plan = plan_of c (chain 6) in
  let r = Planlint.Reach.build plan in
  checki "tasks" 6 (Planlint.Reach.tasks r);
  checkb "0 before 5" true (Planlint.Reach.reaches r 0 5);
  checkb "3 before 4" true (Planlint.Reach.reaches r 3 4);
  checkb "never before itself" false (Planlint.Reach.reaches r 2 2);
  checkb "no backwards order" false (Planlint.Reach.reaches r 5 0)

let test_reach_diamond_siblings_unordered () =
  (* 0 -> {1, 2} -> 3 with the two branches on different nodes: nothing
     orders 1 against 2 *)
  let d =
    Dag.create "diamond"
      [ Dag.task ~id:0 ~name:"s" ~inputs:[] ~out_bytes:64 ~impls:[ cpu ] ();
        Dag.task ~id:1 ~name:"l" ~inputs:[ 0 ] ~out_bytes:64 ~impls:[ cpu ] ();
        Dag.task ~id:2 ~name:"r" ~inputs:[ 0 ] ~out_bytes:64 ~impls:[ cpu ] ();
        Dag.task ~id:3 ~name:"j" ~inputs:[ 1; 2 ] ~out_bytes:64
          ~impls:[ cpu ] () ]
  in
  let mk n = { Scheduler.node = n; impl = cpu } in
  let plan =
    { Scheduler.dag = d;
      assignments = [| mk "ep0"; mk "ep1"; mk "ep2"; mk "ep3" |];
      policy = "manual" }
  in
  let r = Planlint.Reach.build plan in
  checkb "source before join" true (Planlint.Reach.reaches r 0 3);
  checkb "siblings unordered l-r" false (Planlint.Reach.reaches r 1 2);
  checkb "siblings unordered r-l" false (Planlint.Reach.reaches r 2 1);
  (* co-locating the branches serializes them *)
  let plan2 =
    { plan with
      Scheduler.assignments = [| mk "ep0"; mk "ep1"; mk "ep1"; mk "ep3" |] }
  in
  let r2 = Planlint.Reach.build plan2 in
  checkb "co-located branches ordered" true
    (Planlint.Reach.reaches r2 1 2 || Planlint.Reach.reaches r2 2 1)

(* The index must agree with a naive transitive closure of the plan-order
   graph (deduped data edges + per-node chain succession) on random DAGs. *)
let prop_reach_matches_naive =
  QCheck.Test.make ~count:30 ~name:"Reach = naive closure of plan order"
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, kind) ->
      let d =
        match kind with
        | 0 ->
            Dag.layered ~seed ~layers:(2 + (seed mod 4))
              ~width:(1 + (seed mod 6)) ~flops:1e9 ~bytes:1e5 ()
        | 1 ->
            Dag.fork_join ~width:(2 + (seed mod 12)) ~worker_flops:1e9
              ~worker_bytes:1e5 ~chunk_bytes:4096 ()
        | _ ->
            Dag.ensemble ~seed ~members:(1 + (seed mod 5))
              ~stages:(1 + (seed mod 4)) ~stage_flops:1e9 ~stage_bytes:1e4 ()
      in
      let c = demonstrator () in
      let plan = plan_of ~policy:"round-robin" c d in
      let n = Dag.size d in
      (* plan-order adjacency: data edges + chain succession *)
      let succ = Array.make n [] in
      Array.iteri
        (fun i (t : Dag.task) ->
          List.iter
            (fun j -> succ.(j) <- i :: succ.(j))
            (List.sort_uniq compare t.Dag.inputs))
        d.Dag.tasks;
      let last = Hashtbl.create 16 in
      Array.iteri
        (fun i (a : Scheduler.assignment) ->
          (match Hashtbl.find_opt last a.Scheduler.node with
          | Some p -> succ.(p) <- i :: succ.(p)
          | None -> ());
          Hashtbl.replace last a.Scheduler.node i)
        plan.Scheduler.assignments;
      let reach_from u =
        let seen = Array.make n false in
        let rec go v =
          List.iter
            (fun w ->
              if not seen.(w) then begin
                seen.(w) <- true;
                go w
              end)
            succ.(v)
        in
        go u;
        seen
      in
      let r = Planlint.Reach.build plan in
      List.for_all
        (fun u ->
          let seen = reach_from u in
          List.for_all
            (fun v -> Planlint.Reach.reaches r u v = seen.(v))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* ---- shipped plans are clean ------------------------------------------------ *)

(* Random DAGs in construction order: CPU tasks of random flops, bytes and
   1-8 threads, some with an FPGA implementation (some FPGA-only), some
   pinned to a random node of the demonstrator. *)
let random_mixed_dag seed =
  let module Rng = Everest_parallel.Rng in
  let r = Rng.create seed in
  let nodes =
    [| "p9"; "cf0"; "cf1"; "cf2"; "cf3"; "edge0"; "edge1"; "ep0"; "ep1";
       "ep2"; "ep3" |]
  in
  let n = 1 + Rng.int r 150 in
  Dag.create "mixed"
    (List.init n (fun i ->
         let inputs =
           if i = 0 then []
           else List.init (1 + Rng.int r 3) (fun _ -> Rng.int r i)
                |> List.sort_uniq compare
         in
         let cpu =
           Dag.Cpu
             { flops = 1e6 +. (Rng.float r *. 3.7e9);
               bytes = Rng.float r *. 1e7;
               threads = 1 + Rng.int r 8 }
         in
         let fpga () =
           Dag.Fpga
             { bitstream = Printf.sprintf "k%d" (Rng.int r 5);
               estimate = { est with cycles = 1_000 + Rng.int r 5_000_000 };
               in_bytes = Rng.int r 1_000_000;
               out_bytes = Rng.int r 1_000_000 }
         in
         let impls =
           match Rng.int r 10 with
           | 0 -> [ fpga () ]
           | 1 | 2 -> [ cpu; fpga () ]
           | _ -> [ cpu ]
         in
         let pinned =
           if Rng.int r 10 = 0 then Some nodes.(Rng.int r (Array.length nodes))
           else None
         in
         Dag.task ~id:i ~name:(Printf.sprintf "t%d" i) ~pinned ~inputs
           ~out_bytes:(Rng.int r 2_000_000) ~impls ()))

let shipped_policies = [ "round-robin"; "min-load"; "heft"; "heft-locality" ]

(* Every family's plans lint without a diagnostic.  The mixed DAGs' plans
   lint without an error: a pin on a node that cannot run the task's
   implementation keeps the task there, which EV122 reports as a warning
   (the executor degrades it to CPU by design). *)
let prop_shipped_schedulers_lint_clean =
  QCheck.Test.make ~count:25 ~name:"all shipped schedulers lint clean"
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, kind) ->
      let d =
        match kind with
        | 0 ->
            Dag.layered ~seed ~layers:(2 + (seed mod 6))
              ~width:(1 + (seed mod 8)) ~flops:2e9 ~bytes:1e6 ()
        | 1 ->
            Dag.fork_join ~width:(2 + (seed mod 30)) ~worker_flops:1e9
              ~worker_bytes:1e6 ~chunk_bytes:8192 ()
        | _ ->
            Dag.ensemble ~seed ~members:(1 + (seed mod 8))
              ~stages:(1 + (seed mod 6)) ~stage_flops:1e9 ~stage_bytes:1e5 ()
      in
      let mixed = random_mixed_dag seed in
      let c = demonstrator () in
      List.for_all
        (fun policy ->
          Planlint.check c (plan_of ~policy c d) = []
          && not (Lint.has_errors (Planlint.check c (plan_of ~policy c mixed))))
        shipped_policies)

(* ---- a reference DAG of equal content --------------------------------------- *)

(* [analyze c plan] alone and against [reference], a DAG regenerated from
   the same seed: equal content in fresh records, so the analyzer builds
   the reachability index and checks every edge of it.  The plan meets
   them all, so both calls must return the same summary, floats compared
   by their bits. *)
let alone_and_against ?excluded ?deadline_s c reference
    (plan : Scheduler.plan) =
  assert (reference != plan.Scheduler.dag);
  ( Planlint.analyze ?excluded ?deadline_s c plan,
    Planlint.analyze ?excluded ?deadline_s ~dag:reference c plan )

let same_summary (a : Planlint.summary) (b : Planlint.summary) =
  a.Planlint.pl_diags = b.Planlint.pl_diags
  && a.Planlint.pl_tasks = b.Planlint.pl_tasks
  && a.Planlint.pl_edges = b.Planlint.pl_edges
  && a.Planlint.pl_chains = b.Planlint.pl_chains
  && Int64.equal
       (Int64.bits_of_float a.Planlint.pl_cp_lower_s)
       (Int64.bits_of_float b.Planlint.pl_cp_lower_s)

let prop_reference_agrees =
  QCheck.Test.make ~count:150 ~name:"reference DAG gives the same summary"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let d = random_mixed_dag seed in
      let reference = random_mixed_dag seed in
      (* a third of the runs on 29 nodes: more chains than the pass's
         tables start with *)
      let c =
        if seed mod 3 = 0 then
          Cluster.everest_demonstrator ~cloud_fpgas:16 ~endpoints:10 ()
        else demonstrator ()
      in
      let excluded = if seed mod 4 = 0 then [ "cf1"; "ep2" ] else [] in
      List.for_all
        (fun policy ->
          let plan = plan_of ~policy c d in
          let a, b = alone_and_against ~excluded c reference plan in
          let bound = b.Planlint.pl_cp_lower_s in
          same_summary a b
          && List.for_all
               (fun deadline_s ->
                 let a, b =
                   alone_and_against ~excluded ~deadline_s c reference plan
                 in
                 same_summary a b)
               [ Float.pred bound; bound; Float.succ bound;
                 bound *. (0.5 +. (float_of_int (seed mod 100) /. 100.0)) ])
        shipped_policies)

(* A one-task plan with the deadline one ulp under its estimate: the bound
   must carry the estimate's exact bits, so EV140 fires, alone and against
   a reference DAG. *)
let test_modes_agree_on_ev140 () =
  let c = demonstrator () in
  let mk () =
    Dag.create "threads"
      [ Dag.task ~id:0 ~name:"k" ~inputs:[] ~out_bytes:64
          ~impls:[ Dag.Cpu { flops = 1e7; bytes = 0.0; threads = 3 } ]
          () ]
  in
  let plan = Scheduler.heft c (mk ()) in
  let asg = plan.Scheduler.assignments.(0) in
  let node = Cluster.find_node c asg.Scheduler.node in
  let est = Spec.cpu_time node.Node.cpu ~flops:1e7 ~bytes:0.0 ~threads:3 in
  let a, b = alone_and_against ~deadline_s:(Float.pred est) c (mk ()) plan in
  checkb "same summary" true (same_summary a b);
  checkb "bound is the estimate" true
    (Int64.equal
       (Int64.bits_of_float a.Planlint.pl_cp_lower_s)
       (Int64.bits_of_float est));
  checkb "EV140 both ways" true
    (has_code "EV140" a.Planlint.pl_diags
    && has_code "EV140" b.Planlint.pl_diags)

(* More chains than the pass's one-byte map holds: ids from 255 up live
   in its side table, and in the reachability index's rows. *)
let test_modes_agree_past_255_chains () =
  let c =
    Cluster.create
      (List.init 300 (fun i ->
           Cluster.endpoint_node (Printf.sprintf "n%d" i)))
  in
  let mk () =
    Dag.layered ~seed:3 ~layers:4 ~width:150 ~flops:1e9 ~bytes:1e5 ()
  in
  let a, b =
    alone_and_against c (mk ()) (plan_of ~policy:"round-robin" c (mk ()))
  in
  checki "chains" 300 a.Planlint.pl_chains;
  checkb "same summary" true (same_summary a b)

(* ---- happens-before mutations ----------------------------------------------- *)

(* [d] rebuilt through [Dag.create] with task [i] rewritten: the other task
   records are shared, as an edited copy of a DAG shares them *)
let rebuild d i f =
  Dag.create d.Dag.dag_name
    (List.mapi
       (fun j t -> if j = i then f t else t)
       (Array.to_list d.Dag.tasks))

let test_ev110_ev111_edge_drop () =
  let c = demonstrator () in
  let full = chain 3 in
  let cut = rebuild full 2 (fun t -> { t with Dag.inputs = [] }) in
  let plan = plan_of c cut in
  let ds = Planlint.check ~dag:full c plan in
  checkb "EV110 flagged" true (has_error_code "EV110" ds);
  (* round-robin spreads the chain across nodes, so the dropped edge is
     not even transitively recovered *)
  checkb "EV111 flagged" true (has_error_code "EV111" ds);
  (* the same reference dag over the intact plan is clean *)
  checki "intact plan clean" 0
    (List.length (Planlint.check ~dag:full c (plan_of c full)))

let test_ev111_transitively_recovered_edge () =
  (* drop edge 1->2 but co-locate everything on one node: the chain
     serialization still orders 1 before 2, so only EV110 fires *)
  let full = chain 3 in
  let cut = rebuild full 2 (fun t -> { t with Dag.inputs = [] }) in
  let plan =
    { Scheduler.dag = cut;
      assignments =
        Array.init 3 (fun _ -> { Scheduler.node = "ep0"; impl = cpu });
      policy = "manual" }
  in
  let c = demonstrator () in
  let ds = Planlint.check ~dag:full c plan in
  checkb "EV110 still flagged" true (has_error_code "EV110" ds);
  checkb "EV111 satisfied by chain order" false (has_code "EV111" ds)

let test_ev112_shape_mismatch () =
  let c = demonstrator () in
  let plan = plan_of c (chain 4) in
  let short =
    { plan with
      Scheduler.assignments = Array.sub plan.Scheduler.assignments 0 2 }
  in
  let ds = Planlint.check c short in
  checkb "EV112 flagged" true (has_error_code "EV112" ds)

(* ---- placement mutations ---------------------------------------------------- *)

let pinned_pair () =
  Dag.create "pinned"
    [ Dag.task ~id:0 ~name:"src" ~pinned:(Some "ep0") ~inputs:[]
        ~out_bytes:4096 ~impls:[ cpu ] ();
      Dag.task ~id:1 ~name:"sink" ~inputs:[ 0 ] ~out_bytes:64 ~impls:[ cpu ]
        () ]

let test_ev120_off_pin () =
  let c = demonstrator () in
  let plan = plan_of ~policy:"heft" c (pinned_pair ()) in
  let assignments = Array.copy plan.Scheduler.assignments in
  assignments.(0) <- { (assignments.(0)) with Scheduler.node = "cf0" };
  let mutated = { plan with Scheduler.assignments; policy = "mutated" } in
  let ds = Planlint.check c mutated in
  checkb "EV120 flagged" true (has_error_code "EV120" ds);
  (* when the pin is excluded, moving off it was the only option *)
  let ds2 = Planlint.check ~excluded:[ "ep0" ] c mutated in
  checkb "off excluded pin is a warning" true
    (List.exists
       (fun d ->
         String.equal d.Lint.code "EV120" && d.Lint.severity = Lint.Warning)
       ds2);
  checkb "not an error" false (has_error_code "EV120" ds2)

let test_ev121_unknown_and_excluded_nodes () =
  let c = demonstrator () in
  let plan = plan_of c (chain 2) in
  let assignments = Array.copy plan.Scheduler.assignments in
  assignments.(1) <- { (assignments.(1)) with Scheduler.node = "ghost" };
  let ds =
    Planlint.check c { plan with Scheduler.assignments; policy = "mutated" }
  in
  checkb "unknown node flagged" true (has_error_code "EV121" ds);
  let victim = plan.Scheduler.assignments.(0).Scheduler.node in
  let ds2 = Planlint.check ~excluded:[ victim ] c plan in
  checkb "excluded node flagged" true (has_error_code "EV121" ds2)

let test_ev122_ev123_capability_mismatch () =
  let c = demonstrator () in
  let d =
    Dag.create "cap"
      [ Dag.task ~id:0 ~name:"k" ~inputs:[] ~out_bytes:1024
          ~impls:[ fpga "k" ] () ]
  in
  let plan =
    { Scheduler.dag = d;
      assignments = [| { Scheduler.node = "ep0"; impl = fpga "k" } |];
      policy = "manual" }
  in
  let ds = Planlint.check c plan in
  checkb "EV122 error while FPGA nodes exist" true (has_error_code "EV122" ds);
  (* an implementation the task does not offer *)
  let plan2 =
    { plan with
      Scheduler.assignments =
        [| { Scheduler.node = "cf0"; impl = fpga "other" } |] }
  in
  checkb "EV123 flagged" true (has_error_code "EV123" (Planlint.check c plan2));
  (* a pin forcing the FPGA-less placement is the executor's designed
     degradation path, so only a warning *)
  let d3 =
    Dag.create "cap-pinned"
      [ Dag.task ~id:0 ~name:"k" ~pinned:(Some "ep0") ~inputs:[]
          ~out_bytes:1024 ~impls:[ fpga "k" ] () ]
  in
  let plan3 =
    { Scheduler.dag = d3;
      assignments = [| { Scheduler.node = "ep0"; impl = fpga "k" } |];
      policy = "manual" }
  in
  let ds3 = Planlint.check c plan3 in
  checkb "degrade-by-design is a warning" true
    (List.exists
       (fun d ->
         String.equal d.Lint.code "EV122" && d.Lint.severity = Lint.Warning)
       ds3);
  checkb "degrade-by-design not an error" false (has_error_code "EV122" ds3)

let test_ev130_ev131_slot_oversubscription () =
  let c = demonstrator () in
  let width = 8 in
  let workers =
    List.init width (fun i ->
        Dag.task ~id:(i + 1)
          ~name:(Printf.sprintf "w%d" i)
          ~inputs:[ 0 ] ~out_bytes:1024
          ~impls:[ fpga (Printf.sprintf "bit%d" i) ]
          ())
  in
  let d =
    Dag.create "wide"
      (Dag.task ~id:0 ~name:"src" ~inputs:[] ~out_bytes:4096 ~impls:[ cpu ] ()
      :: workers)
  in
  let assignments =
    Array.init (width + 1) (fun i ->
        if i = 0 then { Scheduler.node = "ep0"; impl = cpu }
        else
          { Scheduler.node = "cf0";
            impl = fpga (Printf.sprintf "bit%d" (i - 1)) })
  in
  let ds =
    Planlint.check c { Scheduler.dag = d; assignments; policy = "manual" }
  in
  checkb "EV130 flagged" true (has_code "EV130" ds);
  checkb "EV131 flagged" true (has_code "EV131" ds);
  checkb "warnings, not errors" false (Lint.has_errors ds)

let test_ev140_infeasible_deadline () =
  let c = demonstrator () in
  let d =
    Dag.create "heavy"
      [ Dag.task ~id:0 ~name:"h" ~inputs:[] ~out_bytes:64
          ~impls:[ Dag.Cpu { flops = 1e13; bytes = 1e6; threads = 1 } ]
          () ]
  in
  let plan = plan_of ~policy:"heft" c d in
  checkb "deadline flagged" true
    (has_error_code "EV140" (Planlint.check ~deadline_s:1e-6 c plan));
  let slos =
    [ { Slo.slo_name = "p99-latency";
        objective = Slo.Latency_quantile { q = 0.99; limit_s = 1e-6 } } ]
  in
  checkb "SLO deadline flagged" true
    (has_error_code "EV140" (Planlint.check ~slos c plan));
  let loose =
    [ { Slo.slo_name = "loose";
        objective = Slo.Latency_quantile { q = 0.99; limit_s = 1e9 } } ]
  in
  checki "feasible SLO clean" 0
    (List.length (Planlint.check ~slos:loose c plan))

(* ---- analyzer plumbing ------------------------------------------------------ *)

let test_summary_fields () =
  let c = demonstrator () in
  let s = Planlint.analyze c (plan_of ~policy:"heft" c (chain 5)) in
  checki "tasks" 5 s.Planlint.pl_tasks;
  checki "edges" 4 s.Planlint.pl_edges;
  checkb "chains positive" true (s.Planlint.pl_chains >= 1);
  checkb "cp bound positive" true (s.Planlint.pl_cp_lower_s > 0.0);
  checki "clean" 0 (List.length s.Planlint.pl_diags)

let test_diag_cap () =
  let c = demonstrator () in
  let n = 200 in
  let plan = plan_of c (chain n) in
  let ghost =
    { plan with
      Scheduler.assignments =
        Array.map
          (fun (a : Scheduler.assignment) ->
            { a with Scheduler.node = "ghost" })
          plan.Scheduler.assignments;
      policy = "mutated" }
  in
  let ds = Planlint.check c ghost in
  let ev121 =
    List.filter (fun x -> String.equal x.Lint.code "EV121") ds
  in
  (* 200 tasks on an unknown node, capped at 50 instances + one
     suppression note *)
  checki "capped" 51 (List.length ev121);
  checkb "suppression note" true
    (List.exists
       (fun x ->
         String.equal x.Lint.code "EV121" && x.Lint.severity = Lint.Info)
       ev121)

let test_gate_raises_and_opt_out () =
  let c = demonstrator () in
  let plan = plan_of ~policy:"heft" c (pinned_pair ()) in
  let assignments = Array.copy plan.Scheduler.assignments in
  assignments.(0) <- { (assignments.(0)) with Scheduler.node = "cf0" };
  let mutated = { plan with Scheduler.assignments; policy = "mutated" } in
  (match Executor.execute c mutated with
  | exception Planlint.Plan_invalid { plan = name; diags } ->
      checkb "diag list non-empty" true (diags <> []);
      checkb "name carries dag/policy" true
        (String.equal name "pinned/mutated")
  | _ -> Alcotest.fail "gate must reject the off-pin plan");
  (* the same defective plan is executable when the gate is waived: the
     executor itself never checks pins *)
  let stats = Executor.execute ~plan_lint:false c mutated in
  checkb "opt-out executes" true (stats.Executor.makespan > 0.0)

let test_codes_table_consistent () =
  (* every emitted code in this file's scenarios appears in the catalog *)
  let catalog = List.map (fun (c, _, _) -> c) Planlint.codes in
  List.iter
    (fun c -> checkb (c ^ " documented") true (List.mem c catalog))
    [ "EV110"; "EV111"; "EV112"; "EV120"; "EV121"; "EV122"; "EV123";
      "EV130"; "EV131"; "EV140" ]

(* ---- Lint.promote_warnings (the --strict mode) ------------------------------ *)

let test_promote_warnings () =
  let c = demonstrator () in
  let plan = plan_of ~policy:"heft" c (pinned_pair ()) in
  let assignments = Array.copy plan.Scheduler.assignments in
  assignments.(0) <- { (assignments.(0)) with Scheduler.node = "cf0" };
  let mutated = { plan with Scheduler.assignments; policy = "mutated" } in
  (* off an excluded pin: warning normally, error under strict *)
  let ds = Planlint.check ~excluded:[ "ep0" ] c mutated in
  checkb "warning before" false (Lint.has_errors ds);
  checkb "error after promote" true
    (Lint.has_errors (Lint.promote_warnings ds));
  (* infos survive promotion untouched *)
  let info =
    { Lint.code = "EVXXX"; severity = Lint.Info; in_func = "f";
      op_name = "o"; message = "m"; loc = Everest_ir.Loc.name "l" }
  in
  checkb "info untouched" true
    (List.for_all
       (fun d -> d.Lint.severity = Lint.Info)
       (Lint.promote_warnings [ info ]))

let suite =
  [ ( "reach",
      [ Alcotest.test_case "chain ordering" `Quick test_reach_chain;
        Alcotest.test_case "diamond siblings" `Quick
          test_reach_diamond_siblings_unordered;
        QCheck_alcotest.to_alcotest prop_reach_matches_naive ] );
    ( "clean-plans",
      [ QCheck_alcotest.to_alcotest prop_shipped_schedulers_lint_clean ] );
    ( "modes",
      [ QCheck_alcotest.to_alcotest prop_reference_agrees;
        Alcotest.test_case "EV140 verdict" `Quick test_modes_agree_on_ev140;
        Alcotest.test_case "past 255 chains" `Quick
          test_modes_agree_past_255_chains ]
    );
    ( "structural",
      [ Alcotest.test_case "EV110/EV111 edge drop" `Quick
          test_ev110_ev111_edge_drop;
        Alcotest.test_case "EV111 transitively recovered" `Quick
          test_ev111_transitively_recovered_edge;
        Alcotest.test_case "EV112 shape mismatch" `Quick
          test_ev112_shape_mismatch ] );
    ( "placement",
      [ Alcotest.test_case "EV120 off-pin" `Quick test_ev120_off_pin;
        Alcotest.test_case "EV121 unknown/excluded node" `Quick
          test_ev121_unknown_and_excluded_nodes;
        Alcotest.test_case "EV122/EV123 capability" `Quick
          test_ev122_ev123_capability_mismatch;
        Alcotest.test_case "EV130/EV131 slots" `Quick
          test_ev130_ev131_slot_oversubscription;
        Alcotest.test_case "EV140 infeasible SLO" `Quick
          test_ev140_infeasible_deadline ] );
    ( "plumbing",
      [ Alcotest.test_case "summary fields" `Quick test_summary_fields;
        Alcotest.test_case "per-code cap" `Quick test_diag_cap;
        Alcotest.test_case "executor gate" `Quick
          test_gate_raises_and_opt_out;
        Alcotest.test_case "code catalog" `Quick test_codes_table_consistent;
        Alcotest.test_case "promote warnings" `Quick test_promote_warnings ]
    ) ]

let () = Alcotest.run "everest_planlint" suite
