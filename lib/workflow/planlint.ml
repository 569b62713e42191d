(* Planlint: static sanitization of execution plans before they run.

   A [Dag.t] is checked once, when [Dag.create] or a generator builds it
   (ids equal indexes, inputs precede their task, no input repeats), and
   cannot be changed afterwards, so ascending index order is a
   topological order and the analyzer lints a plan in one walk over its
   tasks.  The expensive part, the happens-before proof against a
   reference DAG, runs over a chain-decomposition reachability index:
   chains are the plan's per-node serialization sequences in index order,
   so with k assigned nodes the index is n·k ints built in one reverse
   pass and every "is the producer ordered before this consumer" query is
   an O(1) array compare.  A million-task plan lints in a small fraction
   of the time HEFT took to produce it (bench e18 gates <5%).

   Diagnostics reuse the Everest_analysis.Lint shapes so the CLI renders
   plan reports and IR reports identically; emission is capped per code so
   a corrupt 10⁶-task plan reports the first few dozen instances and a
   tally, not a million lines. *)

open Everest_platform
module Lint = Everest_analysis.Lint
module Loc = Everest_ir.Loc
module Slo = Everest_observe.Slo

exception Plan_invalid of { plan : string; diags : Lint.diag list }

let codes =
  [ ("EV110", Lint.Error,
     "precedence edge of the reference DAG missing from the plan's DAG: \
      the executor will not wait for the producer");
    ("EV111", Lint.Error,
     "happens-before violation: nothing in the plan (data edges + per-node \
      serialization) orders the consumer after the producer");
    ("EV112", Lint.Error,
     "plan shape mismatch: assignments do not cover the task array");
    ("EV120", Lint.Error,
     "pinned task placed off its pin (warning when the pin is \
      excluded/dead)");
    ("EV121", Lint.Error, "plan references an unknown or excluded node");
    ("EV122", Lint.Error,
     "FPGA implementation on a node without an FPGA (warning when no node \
      has one, or a pin forces it: the executor degrades to CPU)");
    ("EV123", Lint.Error,
     "assigned implementation is not one of the task's implementations");
    ("EV130", Lint.Warning,
     "peak concurrent FPGA demand exceeds the node's role slots (the run \
      will serialize on slot contention)");
    ("EV131", Lint.Warning,
     "distinct bitstreams exceed role slots: plan order forces repeated \
      partial reconfiguration");
    ("EV140", Lint.Error,
     "SLO deadline below the plan's critical-path lower bound: unmeetable \
      before any contention") ]

let severity_of code =
  let rec find = function
    | [] -> Lint.Error
    | (c, s, _) :: rest -> if String.equal c code then s else find rest
  in
  find codes

(* ---- capped diagnostic emitter ----------------------------------------------------- *)

let max_per_code = 50

type emitter = {
  em_func : string;  (* the dag name *)
  em_loc : Loc.t;  (* plan:<policy> *)
  mutable em_rev : Lint.diag list;
  em_counts : (string, int) Hashtbl.t;
}

let emitter (plan : Scheduler.plan) =
  { em_func = plan.Scheduler.dag.Dag.dag_name;
    em_loc = Loc.name ("plan:" ^ plan.Scheduler.policy);
    em_rev = [];
    em_counts = Hashtbl.create 16 }

let emit em ?severity ~code ~op message =
  let n = Option.value ~default:0 (Hashtbl.find_opt em.em_counts code) in
  Hashtbl.replace em.em_counts code (n + 1);
  if n < max_per_code then
    em.em_rev <-
      { Lint.code;
        severity = Option.value ~default:(severity_of code) severity;
        in_func = em.em_func; op_name = op; message; loc = em.em_loc }
      :: em.em_rev

let drain em =
  (* overflow tallies ride at severity Info: the capped instances already
     carried the rule's severity, the tally just records the magnitude *)
  let overflow =
    Hashtbl.fold
      (fun code n acc ->
        if n > max_per_code then
          { Lint.code; severity = Lint.Info; in_func = em.em_func;
            op_name = "…";
            message =
              Printf.sprintf "%d further %s diagnostic(s) suppressed"
                (n - max_per_code) code;
            loc = em.em_loc }
          :: acc
        else acc)
      em.em_counts []
  in
  List.rev em.em_rev
  @ List.sort (fun a b -> compare a.Lint.code b.Lint.code) overflow

let task_op (t : Dag.task) i =
  if String.length t.Dag.name = 0 then Printf.sprintf "task %d" i
  else Printf.sprintf "task %d (%s)" i t.Dag.name

(* ---- chains ------------------------------------------------------------------------ *)

(* One chain per distinct assigned node, numbered in order of first
   appearance.  Node names in a real plan are physically shared (the
   scheduler hands out the node's own string), so a direct-mapped memo over
   a cheap shape hash answers most lookups with three character loads and
   one pointer compare; a miss scans the few known chains. *)
type chain_table = {
  mutable ch_names : (string * int) list;  (* newest first *)
  mutable ch_k : int;
  ch_memo_name : string array;
  ch_memo_id : int array;
}

let chain_table () =
  { ch_names = []; ch_k = 0; ch_memo_name = Array.make 256 "";
    ch_memo_id = Array.make 256 0 }

let rec scan_chains ch name = function
  | (nm, id) :: rest ->
      if nm == name || String.equal nm name then id
      else scan_chains ch name rest
  | [] ->
      let id = ch.ch_k in
      ch.ch_k <- id + 1;
      ch.ch_names <- (name, id) :: ch.ch_names;
      id

let[@inline] chain_id ch name =
  let len = String.length name in
  if len = 0 then scan_chains ch name ch.ch_names
  else begin
    let s =
      ((len * 31)
      + (Char.code (String.unsafe_get name 0) * 7)
      + Char.code (String.unsafe_get name (len - 1)))
      land 255
    in
    if Array.unsafe_get ch.ch_memo_name s == name then
      Array.unsafe_get ch.ch_memo_id s
    else begin
      let id = scan_chains ch name ch.ch_names in
      ch.ch_memo_name.(s) <- name;
      ch.ch_memo_id.(s) <- id;
      id
    end
  end

(* ---- reachability index ------------------------------------------------------------ *)

(* Each chain lists its tasks in index order, a topological order, which
   is the order any serialization of the plan's static timeline executes
   them in.  The index row of vertex v stores, per chain c, the smallest
   position in c
   among vertices reachable from v through plan order (data edges + chain
   succession); membership of w's chain position then answers
   reaches(v, w) in O(1). *)
type reach = {
  r_n : int;
  r_k : int;
  r_chain : int array;  (* task -> chain id *)
  r_pos : int array;  (* task -> position within its chain *)
  r_label : int array;  (* n·k, min reachable position per chain *)
}

let build_reach (dag : Dag.t) ~(chain : int array) ~k =
  let n = Dag.size dag in
  let k = max 1 k in
  let pos = Array.make (max 1 n) 0 in
  let chain_next = Array.make (max 1 n) (-1) in
  let last = Array.make k (-1) in
  let counts = Array.make k 0 in
  for v = 0 to n - 1 do
    let c = chain.(v) in
    pos.(v) <- counts.(c);
    counts.(c) <- counts.(c) + 1;
    if last.(c) >= 0 then chain_next.(last.(c)) <- v;
    last.(c) <- v
  done;
  let label = Array.make (max 1 (n * k)) max_int in
  let merge_from v w =
    let bv = v * k and bw = w * k in
    for c = 0 to k - 1 do
      let x = Array.unsafe_get label (bw + c) in
      if x < Array.unsafe_get label (bv + c) then
        Array.unsafe_set label (bv + c) x
    done
  in
  for v = n - 1 downto 0 do
    if chain_next.(v) >= 0 then merge_from v chain_next.(v);
    Dag.iter_consumers dag v (fun w -> merge_from v w);
    let own = (v * k) + chain.(v) in
    if pos.(v) < label.(own) then label.(own) <- pos.(v)
  done;
  { r_n = n; r_k = k; r_chain = chain; r_pos = pos; r_label = label }

(* Strict ordering: v's own label includes itself, so a strict query on the
   same chain needs pos(w) > pos(v); across chains the label is already
   strictly "reachable through at least the recording vertex". *)
let reach_query r u v =
  if u < 0 || v < 0 || u >= r.r_n || v >= r.r_n || u = v then false
  else
    let cu = r.r_chain.(u) and cv = r.r_chain.(v) in
    let lbl = r.r_label.((u * r.r_k) + cv) in
    if cu = cv then lbl <= r.r_pos.(v) && r.r_pos.(u) < r.r_pos.(v)
    else lbl <= r.r_pos.(v)

module Reach = struct
  type t = reach

  let build ?dag (plan : Scheduler.plan) =
    let dag = Option.value ~default:plan.Scheduler.dag dag in
    if Array.length plan.Scheduler.assignments <> Dag.size dag then
      invalid_arg "Planlint.Reach.build: plan does not cover the DAG";
    let ch = chain_table () in
    let chain =
      Array.map
        (fun (a : Scheduler.assignment) -> chain_id ch a.Scheduler.node)
        plan.Scheduler.assignments
    in
    build_reach dag ~chain ~k:ch.ch_k

  let tasks r = r.r_n
  let chains r = r.r_k
  let reaches = reach_query
end

(* ---- the per-task pass ------------------------------------------------------------- *)

type summary = {
  pl_diags : Lint.diag list;
  pl_tasks : int;
  pl_edges : int;
  pl_chains : int;
  pl_cp_lower_s : float;
}

(* The pass visits the tasks in index order, so each after its producers.
   Per task it resolves the node chain, runs the placement checks
   (EV120–EV123), accumulates ASAP readiness from the producers, adds the
   execution estimate, and collects FPGA tasks for the slot sweep
   (EV130/EV131).  Transfer times are affine in bytes per node pair, so
   the pass memoizes the two coefficients per (source chain, destination
   chain). *)
type pass = {
  p_em : emitter;
  p_c : Cluster.t;
  p_excluded : string list;
  p_cluster_fpga : bool;
  p_chains : chain_table;
  mutable p_cap : int;  (* capacity of the per-chain tables *)
  mutable p_node : Node.t option array;  (* None: unknown node *)
  mutable p_excl : bool array;
  mutable p_fpga : bool array;
  mutable p_ftasks : (float * float * string) list array;
      (* FPGA tasks on FPGA nodes: (start, finish, bitstream) *)
  mutable p_x_base : float array;  (* cap·cap, nan until probed *)
  mutable p_x_per : float array;
  p_chain : Bytes.t;  (* task -> chain, one byte; 255 = look in p_wide *)
  mutable p_wide : int array;  (* task -> chain from 255 on, made on demand *)
  p_fin : float array;  (* task -> readiness, then finish *)
  p_outb : float array;  (* task -> output bytes *)
}

let pass ~excluded c (plan : Scheduler.plan) n =
  let cap = 16 in
  { p_em = emitter plan; p_c = c; p_excluded = excluded;
    p_cluster_fpga = List.exists Node.has_fpga c.Cluster.nodes;
    p_chains = chain_table (); p_cap = cap; p_node = Array.make cap None;
    p_excl = Array.make cap false; p_fpga = Array.make cap false;
    p_ftasks = Array.make cap []; p_x_base = Array.make (cap * cap) nan;
    p_x_per = Array.make (cap * cap) 0.0;
    p_chain = Bytes.make (max 1 n) '\000'; p_wide = [||];
    p_fin = Array.make (max 1 n) 0.0; p_outb = Array.make (max 1 n) 0.0 }

let is_excluded p name = List.exists (String.equal name) p.p_excluded

(* cold path: a new chain looks its node up once; a full table doubles,
   and the transfer memo starts over at the new stride *)
let add_chain p name ci =
  if ci = p.p_cap then begin
    let grow a x = Array.append a (Array.make p.p_cap x) in
    p.p_node <- grow p.p_node None;
    p.p_excl <- grow p.p_excl false;
    p.p_fpga <- grow p.p_fpga false;
    p.p_ftasks <- grow p.p_ftasks [];
    p.p_cap <- 2 * p.p_cap;
    p.p_x_base <- Array.make (p.p_cap * p.p_cap) nan;
    p.p_x_per <- Array.make (p.p_cap * p.p_cap) 0.0
  end;
  let node = Hashtbl.find_opt p.p_c.Cluster.node_tbl name in
  p.p_node.(ci) <- node;
  p.p_excl.(ci) <- is_excluded p name;
  p.p_fpga.(ci) <-
    (match node with Some nd -> Node.has_fpga nd | None -> false)

(* task [i]'s chain: a one-byte map keeps the per-task working set small
   (the walks are memory-bound at 10^6 tasks); a plan on more than 255
   nodes keeps the larger ids in a second, full-width map *)
let[@inline] chain_of p i =
  let c = Char.code (Bytes.unsafe_get p.p_chain i) in
  if c < 255 then c else p.p_wide.(i)

(* task [i]'s chain, recorded with its output size *)
let[@inline] resolve p i (t : Dag.task) (a : Scheduler.assignment) =
  let k = p.p_chains.ch_k in
  let ci = chain_id p.p_chains a.Scheduler.node in
  if ci = k then add_chain p a.Scheduler.node ci;
  if ci < 255 then Bytes.unsafe_set p.p_chain i (Char.unsafe_chr ci)
  else begin
    if Array.length p.p_wide = 0 then
      p.p_wide <- Array.make (Bytes.length p.p_chain) 0;
    Bytes.unsafe_set p.p_chain i '\255';
    p.p_wide.(i) <- ci
  end;
  Array.unsafe_set p.p_outb i (float_of_int t.Dag.out_bytes);
  ci

(* impl-offered membership without per-task closures; scheduler-produced
   plans share the impl value physically with the task's own list, so
   pointer equality is tried first *)
let rec impl_mem_phys x = function
  | [] -> false
  | y :: rest -> y == x || impl_mem_phys x rest

let rec impl_mem_struct x = function
  | [] -> false
  | y :: rest -> y = x || impl_mem_struct x rest

(* EV120–EV123 for task [i] placed on chain [ci] *)
let[@inline] place p i (t : Dag.task) (a : Scheduler.assignment) ci =
  let em = p.p_em in
  match p.p_node.(ci) with
  | None ->
      emit em ~code:"EV121" ~op:(task_op t i)
        (Printf.sprintf "assigned to unknown node %S" a.Scheduler.node)
  | Some _ -> (
      if p.p_excl.(ci) then
        emit em ~code:"EV121" ~op:(task_op t i)
          (Printf.sprintf "assigned to excluded node %S" a.Scheduler.node);
      (match t.Dag.pinned with
      | Some pin when not (String.equal pin a.Scheduler.node) ->
          if is_excluded p pin then
            emit em ~code:"EV120" ~severity:Lint.Warning ~op:(task_op t i)
              (Printf.sprintf
                 "pinned to excluded node %S, placed on %S (repair had no \
                  choice)"
                 pin a.Scheduler.node)
          else
            emit em ~code:"EV120" ~op:(task_op t i)
              (Printf.sprintf "pinned to %S but placed on %S" pin
                 a.Scheduler.node)
      | _ -> ());
      (match t.Dag.impls with
      | [] -> ()
      | impls ->
          if
            (not (impl_mem_phys a.Scheduler.impl impls))
            && not (impl_mem_struct a.Scheduler.impl impls)
          then
            emit em ~code:"EV123" ~op:(task_op t i)
              (Printf.sprintf
                 "assigned implementation %s is not offered by the task \
                  (offers: %s)"
                 (Dag.impl_name a.Scheduler.impl)
                 (String.concat ", " (List.map Dag.impl_name impls))));
      match a.Scheduler.impl with
      | Dag.Fpga { bitstream; _ } when not p.p_fpga.(ci) ->
          let pinned_here =
            match t.Dag.pinned with
            | Some pin -> String.equal pin a.Scheduler.node
            | None -> false
          in
          (* misrouting (an FPGA-capable node exists, nothing forced this
             placement) is an error; designed degradation (FPGA-less
             cluster, or the pin wins) is a warning *)
          let misrouted = p.p_cluster_fpga && not pinned_here in
          emit em ~code:"EV122"
            ~severity:(if misrouted then Lint.Error else Lint.Warning)
            ~op:(task_op t i)
            (Printf.sprintf
               "FPGA implementation %S on FPGA-less node %S%s: the executor \
                will degrade it to CPU"
               bitstream a.Scheduler.node
               (if misrouted then " while FPGA-capable nodes exist" else ""))
      | _ -> ())

(* cold path: probe the platform model once per node pair *)
let probe_xfer p slot cs cd =
  (match (p.p_node.(cs), p.p_node.(cd)) with
  | Some src, Some dst ->
      let t0 = Cluster.transfer_time p.p_c ~src ~dst ~bytes:0 in
      let t1 = Cluster.transfer_time p.p_c ~src ~dst ~bytes:1_000_000 in
      p.p_x_base.(slot) <- t0;
      p.p_x_per.(slot) <- (t1 -. t0) /. 1_000_000.0
  | _ ->
      p.p_x_base.(slot) <- 0.0;
      p.p_x_per.(slot) <- 0.0);
  p.p_x_base.(slot)

(* readiness of task [i] on chain [ci] after producer [d]: the producer's
   finish, plus the transfer when it ran on another node (float array
   cells stay unboxed; [p_fin.(i)] is the accumulator) *)
let[@inline] await p i ci d =
  let cd = chain_of p d in
  let arr =
    if ci = cd then Array.unsafe_get p.p_fin d
    else begin
      let slot = (cd * p.p_cap) + ci in
      let base = Array.unsafe_get p.p_x_base slot in
      let base = if Float.is_nan base then probe_xfer p slot cd ci else base in
      Array.unsafe_get p.p_fin d +. base
      +. (Array.unsafe_get p.p_x_per slot *. Array.unsafe_get p.p_outb d)
    end
  in
  if arr > Array.unsafe_get p.p_fin i then Array.unsafe_set p.p_fin i arr

(* What running [impl] on [node] costs, priced as the schedulers price it.
   An FPGA implementation on a node without an FPGA costs its CPU
   fallback, which the executor runs instead; a CPU estimate that is not
   finite counts 0. *)
let[@inline] exec_time node impl =
  let e = Scheduler.exec_estimate node impl in
  if Float.is_finite e then e
  else
    match impl with
    | Dag.Fpga { estimate; in_bytes; out_bytes; _ } ->
        Scheduler.exec_estimate node
          (Scheduler.cpu_fallback estimate ~in_bytes ~out_bytes)
    | Dag.Cpu _ -> 0.0

(* task [i]'s finish: its readiness plus the execution estimate *)
let[@inline] settle p i (a : Scheduler.assignment) ci =
  match Array.unsafe_get p.p_node ci with
  | None -> ()  (* unknown node (EV121): estimate 0 *)
  | Some node -> (
      let ready = Array.unsafe_get p.p_fin i in
      let e = exec_time node a.Scheduler.impl in
      Array.unsafe_set p.p_fin i (ready +. e);
      match a.Scheduler.impl with
      | Dag.Fpga { bitstream; _ } when Array.unsafe_get p.p_fpga ci ->
          p.p_ftasks.(ci) <- (ready, ready +. e, bitstream) :: p.p_ftasks.(ci)
      | _ -> ())

(* FPGA slot pressure (EV130) + reconfiguration thrash (EV131) per node,
   over the per-chain (start, finish, bitstream) lists the pass collected *)
let slot_sweep p =
  for ci = 0 to p.p_chains.ch_k - 1 do
    match p.p_node.(ci) with
    | Some node when p.p_ftasks.(ci) <> [] ->
        let slots =
          List.fold_left
            (fun acc (d : Node.fpga_dev) ->
              acc + d.Node.fspec.Spec.role_slots)
            0 node.Node.fpgas
        in
        let ftasks =
          List.sort
            (fun (s1, f1, _) (s2, f2, _) ->
              if s1 <> s2 then compare s1 s2 else compare f1 f2)
            p.p_ftasks.(ci)
        in
        if slots > 0 then begin
          (* peak concurrent demand: sweep starts against the sorted
             finish times *)
          let finishes =
            List.sort compare (List.map (fun (_, f, _) -> f) ftasks)
          in
          let farr = Array.of_list finishes in
          let live = ref 0 and peak = ref 0 and fi = ref 0 in
          List.iter
            (fun (s, _, _) ->
              while !fi < Array.length farr && farr.(!fi) <= s do
                incr fi;
                decr live
              done;
              incr live;
              if !live > !peak then peak := !live)
            ftasks;
          if !peak > slots then
            emit p.p_em ~code:"EV130" ~op:("node " ^ node.Node.name)
              (Printf.sprintf
                 "peak concurrent FPGA demand %d exceeds %d role slot(s): \
                  the timeline will serialize on slot contention"
                 !peak slots);
          (* thrash: LRU over the role slots in plan order; every miss
             beyond the initial fills is a forced reconfiguration *)
          let distinct =
            List.sort_uniq compare (List.map (fun (_, _, b) -> b) ftasks)
          in
          if List.length distinct > slots then begin
            let cache = ref [] and misses = ref 0 in
            List.iter
              (fun (_, _, b) ->
                if List.mem b !cache then
                  cache := b :: List.filter (fun x -> x <> b) !cache
                else begin
                  incr misses;
                  cache :=
                    b
                    :: (if List.length !cache >= slots then
                          List.filteri
                            (fun i _ -> i < List.length !cache - 1)
                            !cache
                        else !cache)
                end)
              ftasks;
            let forced = !misses - slots in
            if forced > 0 then
              let reconfig_s =
                match node.Node.fpgas with
                | d :: _ -> d.Node.fspec.Spec.reconfig_s
                | [] -> 0.0
              in
              emit p.p_em ~code:"EV131" ~op:("node " ^ node.Node.name)
                (Printf.sprintf
                   "%d distinct bitstream(s) over %d role slot(s) force \
                    >=%d reconfiguration(s) in plan order (~%.3f s of \
                    thrash)"
                   (List.length distinct) slots forced
                   (float_of_int forced *. reconfig_s))
          end
        end
    | _ -> ()
  done

(* SLO feasibility (EV140): the contention-free critical path already
   exceeds a deadline *)
let slo_checks em cp_lb deadline_s slos =
  let deadline name limit =
    if cp_lb > limit then
      emit em ~code:"EV140" ~op:"plan"
        (Printf.sprintf
           "critical-path lower bound %.3fs exceeds %s deadline %.3fs \
            (unmeetable before any contention)"
           cp_lb name limit)
  in
  (match deadline_s with
  | Some limit -> deadline "the declared" limit
  | None -> ());
  List.iter
    (fun (s : Slo.spec) ->
      match s.Slo.objective with
      | Slo.Latency_quantile { limit_s; _ } ->
          deadline (Printf.sprintf "SLO %S" s.Slo.slo_name) limit_s
      | Slo.Availability _ | Slo.Completion_ratio _ -> ())
    slos

let summarize p ~n ~edges cp_lb =
  { pl_diags = drain p.p_em; pl_tasks = n; pl_edges = edges;
    pl_chains = p.p_chains.ch_k; pl_cp_lower_s = cp_lb }

(* the late passes over a completed timeline, and the summary *)
let conclude p ~n ~edges ~slos ?deadline_s () =
  let cp_lb = ref 0.0 in
  for i = 0 to Array.length p.p_fin - 1 do
    cp_lb := Float.max !cp_lb (Array.unsafe_get p.p_fin i)
  done;
  slot_sweep p;
  slo_checks p.p_em !cp_lb deadline_s slos;
  summarize p ~n ~edges !cp_lb

(* EV110/EV111 against a reference DAG other than the plan's own.  The
   executor enforces exactly the plan DAG's data edges, each of which is by
   construction an edge of the plan-order graph, so checking a plan against
   its own DAG proves nothing and is skipped.  Against a different DAG each
   of its precedence edges must be in the plan's DAG (EV110) and ordered by
   the plan (EV111), which verifies repairs instead of trusting them.  The
   index needs every task's chain, and these diagnostics precede the
   walk's, so the chains are resolved here first, in index order as the
   walk resolves them; each task's producers are checked in ascending
   order. *)
let reference_checks p (rdag : Dag.t) (plan : Scheduler.plan) =
  let tasks = plan.Scheduler.dag.Dag.tasks in
  let assignments = plan.Scheduler.assignments in
  let n = Array.length tasks in
  for i = 0 to n - 1 do
    ignore (resolve p i tasks.(i) assignments.(i))
  done;
  let r =
    build_reach plan.Scheduler.dag ~chain:(Array.init n (chain_of p))
      ~k:p.p_chains.ch_k
  in
  let rtasks = rdag.Dag.tasks in
  if Array.length rtasks <> n then
    emit p.p_em ~code:"EV112" ~op:"plan"
      (Printf.sprintf "reference DAG has %d task(s), the plan's DAG %d"
         (Array.length rtasks) n);
  for t = 0 to min (Array.length rtasks) n - 1 do
    (* a task record shared with the plan's DAG carries its edges *)
    if rtasks.(t) != tasks.(t) then
      List.iter
        (fun d ->
          if not (List.mem d tasks.(t).Dag.inputs) then
            emit p.p_em ~code:"EV110" ~op:(task_op rtasks.(t) t)
              (Printf.sprintf
                 "dependence on task %d (%s) was dropped from the plan's DAG"
                 d rtasks.(d).Dag.name);
          if not (reach_query r d t) then
            emit p.p_em ~code:"EV111" ~op:(task_op rtasks.(t) t)
              (Printf.sprintf
                 "no plan ordering places producer %d (%s) before this \
                  consumer"
                 d rtasks.(d).Dag.name))
        (List.sort compare rtasks.(t).Dag.inputs)
  done

(* EV112, then EV110/EV111 when a different reference DAG is given, then
   one walk over the tasks in index order that feeds the pass each task's
   inputs, as a loop so that no closure holds the edge counter. *)
let analyze ?dag ?(excluded = []) ?(slos = []) ?deadline_s (c : Cluster.t)
    (plan : Scheduler.plan) : summary =
  let pdag = plan.Scheduler.dag in
  let tasks = pdag.Dag.tasks in
  let n = Array.length tasks in
  let assignments = plan.Scheduler.assignments in
  let p = pass ~excluded c plan n in
  if Array.length assignments <> n then begin
    emit p.p_em ~code:"EV112" ~op:"plan"
      (Printf.sprintf "%d assignment(s) for %d task(s)"
         (Array.length assignments) n);
    summarize p ~n ~edges:0 0.0
  end
  else begin
    (match dag with
    | Some rdag when rdag != pdag -> reference_checks p rdag plan
    | _ -> ());
    let edges = ref 0 in
    for i = 0 to n - 1 do
      let a = Array.unsafe_get assignments i in
      let t = Array.unsafe_get tasks i in
      let ci = resolve p i t a in
      place p i t a ci;
      let rest = ref t.Dag.inputs in
      while !rest != [] do
        match !rest with
        | [] -> ()
        | d :: tl ->
            incr edges;
            await p i ci d;
            rest := tl
      done;
      settle p i a ci
    done;
    conclude p ~n ~edges:!edges ~slos ?deadline_s ()
  end

let check ?dag ?deadline_s c plan = (analyze ?dag ?deadline_s c plan).pl_diags

let gate c plan =
  let diags = check c plan in
  if Lint.has_errors diags then
    raise
      (Plan_invalid
         { plan =
             plan.Scheduler.dag.Dag.dag_name ^ "/" ^ plan.Scheduler.policy;
           diags })
