(* Deterministic fault plans over the simulated clock.

   A plan is pure data: crash/restart windows per node and per-attempt
   transient-failure probabilities.  Every
   random decision is derived by hashing (seed, task, attempt, salt), never
   by consuming a shared stream, so the verdict for a given attempt does not
   depend on the order in which the executor asks — the property that makes
   chaos runs bit-reproducible regardless of event interleaving. *)

module Rng = Everest_parallel.Rng

type window = {
  w_node : string;
  w_down : float;  (* node dies at this simulated time *)
  w_up : float option;  (* restarts here; [None] = permanent death *)
}

type t = {
  seed : int;
  windows : window list;
  transient_prob : float;
  fpga_transient_prob : float;
}

let none =
  { seed = 0; windows = []; transient_prob = 0.0; fpga_transient_prob = 0.0 }

let plan ?(seed = 1) ?(windows = []) ?(transient_prob = 0.0)
    ?(fpga_transient_prob = 0.0) () =
  if transient_prob < 0.0 || transient_prob >= 1.0 then
    invalid_arg "Faults.plan: transient_prob must be in [0, 1)";
  if fpga_transient_prob < 0.0 || fpga_transient_prob >= 1.0 then
    invalid_arg "Faults.plan: fpga_transient_prob must be in [0, 1)";
  { seed; windows; transient_prob; fpga_transient_prob }

(* A kill list (the CLI's [--kill NODE:T]): each (node, time) pair becomes
   a permanent-death window. *)
let of_failures failures =
  { none with
    windows =
      List.map (fun (n, t) -> { w_node = n; w_down = t; w_up = None }) failures
  }

let node_dead t ~node ~now =
  List.exists
    (fun w ->
      String.equal w.w_node node
      && now >= w.w_down
      && match w.w_up with None -> true | Some up -> now < up)
    t.windows

(* Did [node] go down at any point in ([t0], [t1]]?  Used by lineage: an
   output produced before a crash is lost even if the node restarted. *)
let down_between t ~node ~t0 ~t1 =
  List.exists
    (fun w ->
      String.equal w.w_node node && w.w_down > t0 && w.w_down <= t1)
    t.windows

(* ---- deterministic draws -------------------------------------------------------- *)

(* One uniform draw in [0,1) keyed by (seed, a, b, salt).  Park–Miller with a
   mixed seed; a single [next] decorrelates nearby keys well enough for fault
   injection. *)
let hash_draw t ~a ~b ~salt =
  let key =
    (t.seed * 1_000_003) lxor (a * 8_191) lxor (b * 131_071) lxor (salt * 29)
  in
  let r = Rng.create key in
  ignore (Rng.next r);
  Rng.float r

let transient t ~task ~attempt =
  t.transient_prob > 0.0
  && hash_draw t ~a:task ~b:attempt ~salt:1 < t.transient_prob

let fpga_transient t ~task ~attempt =
  t.fpga_transient_prob > 0.0
  && hash_draw t ~a:task ~b:attempt ~salt:2 < t.fpga_transient_prob

(* ---- random plan generation (the chaos entry point) ----------------------------- *)

let random_plan ?(seed = 7) ~fault_rate ?(mean_downtime = 0.0)
    ?(transient_prob = 0.0) ?(fpga_transient_prob = 0.0) ~nodes ~horizon () =
  if fault_rate < 0.0 || fault_rate > 1.0 then
    invalid_arg "Faults.random_plan: fault_rate must be in [0, 1]";
  let rng = Rng.create seed in
  let windows =
    List.filter_map
      (fun node ->
        let hit = Rng.float rng < fault_rate in
        let at = Rng.float rng *. horizon in
        let dt = Rng.float rng *. 2.0 *. mean_downtime in
        if hit then
          Some
            { w_node = node; w_down = at;
              w_up = (if mean_downtime > 0.0 then Some (at +. dt) else None) }
        else None)
      nodes
  in
  { seed; windows; transient_prob; fpga_transient_prob }
