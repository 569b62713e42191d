(* Workflow task graphs (the HyperLoom execution plan).

   A task carries one or more implementations (the compiler's variants):
   software on some number of threads, or a synthesized FPGA kernel.  The
   scheduler picks a node and an implementation per task; the executor
   replays the plan on the simulated platform.

   Every DAG is built here, by [create] or a generator, and checked once:
   ids equal indexes, each input precedes its task and no input repeats,
   so index order is a topological order and nothing downstream re-checks
   it.  The record is private and its task array is never written after
   construction, so the reverse adjacency (consumers), built in the same
   step as an array of arrays, can never go stale; [consumers] and
   [iter_consumers] are O(out-degree) instead of the historical O(n)
   rebuild per call, which at 10⁵+ tasks made every downstream walk (HEFT
   ranks, executor completions) quadratic. *)

type impl =
  | Cpu of { flops : float; bytes : float; threads : int }
  | Fpga of {
      bitstream : string;
      estimate : Everest_hls.Estimate.t;
      in_bytes : int;
      out_bytes : int;
    }

let impl_name = function
  | Cpu { threads; _ } -> Printf.sprintf "cpu<%d>" threads
  | Fpga { bitstream; _ } -> Printf.sprintf "fpga<%s>" bitstream

type task = {
  id : int;
  name : string;
  impls : impl list;  (* non-empty *)
  inputs : int list;  (* producer task ids *)
  out_bytes : int;
  pinned : string option;  (* sources pinned to a node (data origin) *)
}

type t = {
  dag_name : string;
  tasks : task array;
  rev_adj : int array array;  (* consumer ids per producer, ascending *)
}

let task ?(pinned = None) ?(impls = []) ~id ~name ~inputs ~out_bytes () =
  { id; name; impls; inputs; out_bytes; pinned }

(* Reverse adjacency of validated tasks in one O(tasks + edges) pass;
   consumer lists come out in ascending task id (the order the historical
   scan produced). *)
let build_rev_adj tasks =
  let n = Array.length tasks in
  let deg = Array.make n 0 in
  Array.iter
    (fun t -> List.iter (fun d -> deg.(d) <- deg.(d) + 1) t.inputs)
    tasks;
  let adj = Array.init n (fun i -> Array.make deg.(i) 0) in
  let fill = Array.make n 0 in
  Array.iter
    (fun t ->
      List.iter
        (fun d ->
          adj.(d).(fill.(d)) <- t.id;
          fill.(d) <- fill.(d) + 1)
        t.inputs)
    tasks;
  adj

let of_tasks dag_name tasks =
  Array.iteri
    (fun i t ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            invalid_arg
              (Printf.sprintf "dag %S: task %d (%S): %s" dag_name t.id t.name
                 msg))
          fmt
      in
      if t.id <> i then fail "ids must be consecutive (expected id %d)" i;
      List.iter
        (fun d ->
          if d < 0 then fail "input %d is negative" d
          else if d >= i then
            fail "input %d does not precede the task (inputs must be < %d)" d
              i)
        t.inputs;
      (* duplicate inputs deadlock the executor: it counts raw inputs but
         producers signal deduplicated consumers *)
      match t.inputs with
      | [] | [ _ ] -> ()
      | ds ->
          let rec dups = function
            | a :: (b :: _ as rest) ->
                if a = b then fail "input %d is listed more than once" a
                else dups rest
            | _ -> ()
          in
          dups (List.sort compare ds))
    tasks;
  { dag_name; tasks; rev_adj = build_rev_adj tasks }

let create dag_name tasks = of_tasks dag_name (Array.of_list tasks)

let size d = Array.length d.tasks
let find d id = d.tasks.(id)

let consumers d id = Array.to_list d.rev_adj.(id)
let iter_consumers d id f = Array.iter f d.rev_adj.(id)
(* The historical O(n·deg) rebuild, kept as the reference the cached index
   is property-tested against (and as the quadratic baseline in e17). *)
let consumers_naive d id =
  Array.to_list d.tasks
  |> List.filter_map (fun t -> if List.mem id t.inputs then Some t.id else None)

(* ---- generators ------------------------------------------------------------------ *)

(* Layered random DAG: [layers] layers of [width] tasks, each consuming 1-2
   tasks from the previous layer.  Deterministic in [seed]; emits exactly
   the task array of the historical list-based generator (which kept the
   previous layer newest-first, so draw [k] named id [l·width - 1 - k]) but
   in O(n) instead of O(n·width) [List.nth] walks. *)
let layered ?(seed = 1) ~layers ~width ~flops ~bytes () =
  let rng = Everest_parallel.Rng.create seed in
  let rand m = Everest_parallel.Rng.int rng m in
  let n = layers * width in
  let out_bytes = int_of_float bytes in
  let impls = [ Cpu { flops; bytes; threads = 1 } ] in
  let tasks =
    Array.init n (fun _ ->
        { id = 0; name = ""; impls = []; inputs = []; out_bytes = 0;
          pinned = None })
  in
  let id = ref 0 in
  for l = 0 to layers - 1 do
    for w = 0 to width - 1 do
      let inputs =
        if l = 0 then []
        else
          let p = (l * width) - 1 - rand width in
          let q = (l * width) - 1 - rand width in
          List.sort_uniq compare [ p; q ]
      in
      tasks.(!id) <-
        task ~id:!id ~name:(Printf.sprintf "t%d_%d" l w) ~inputs ~out_bytes
          ~impls ();
      incr id
    done
  done;
  of_tasks "layered" tasks

(* Fork-join: one source fans out to [width] parallel workers, joined by a
   reducer — the shape of ensemble weather processing. *)
let fork_join ~width ~worker_flops ~worker_bytes ~chunk_bytes () =
  let src =
    task ~id:0 ~name:"source" ~inputs:[] ~out_bytes:(width * chunk_bytes)
      ~impls:[ Cpu { flops = 1e6; bytes = float_of_int (width * chunk_bytes); threads = 1 } ]
      ()
  in
  let workers =
    List.init width (fun i ->
        task ~id:(i + 1)
          ~name:(Printf.sprintf "worker%d" i)
          ~inputs:[ 0 ] ~out_bytes:chunk_bytes
          ~impls:[ Cpu { flops = worker_flops; bytes = worker_bytes; threads = 1 } ]
          ())
  in
  let join =
    task ~id:(width + 1) ~name:"reduce"
      ~inputs:(List.init width (fun i -> i + 1))
      ~out_bytes:chunk_bytes
      ~impls:[ Cpu { flops = 1e7; bytes = float_of_int (width * chunk_bytes); threads = 1 } ]
      ()
  in
  create "fork-join" ((src :: workers) @ [ join ])

(* Ensemble: [members] independent [stages]-deep chains fed by one source
   and joined by a reducer — the Estee "ensemble of simulations" family.
   Per-member work is jittered by up to 2x (deterministic in [seed]) so
   members straggle like real ensembles do. *)
let ensemble ?(seed = 1) ~members ~stages ~stage_flops ~stage_bytes () =
  if members < 1 || stages < 1 then
    invalid_arg "ensemble: members and stages must be positive";
  let rng = Everest_parallel.Rng.create seed in
  let n = 2 + (members * stages) in
  let out_bytes = int_of_float stage_bytes in
  let tasks =
    Array.init n (fun _ ->
        { id = 0; name = ""; impls = []; inputs = []; out_bytes = 0;
          pinned = None })
  in
  tasks.(0) <-
    task ~id:0 ~name:"source" ~inputs:[] ~out_bytes:(members * out_bytes)
      ~impls:
        [ Cpu { flops = 1e6; bytes = float_of_int members *. stage_bytes;
                threads = 1 } ]
      ();
  for m = 0 to members - 1 do
    (* member-level straggle factor in [1, 2) *)
    let jitter = 1.0 +. Everest_parallel.Rng.float rng in
    for s = 0 to stages - 1 do
      let id = 1 + (m * stages) + s in
      tasks.(id) <-
        task ~id
          ~name:(Printf.sprintf "m%d_s%d" m s)
          ~inputs:[ (if s = 0 then 0 else id - 1) ]
          ~out_bytes
          ~impls:
            [ Cpu { flops = stage_flops *. jitter; bytes = stage_bytes;
                    threads = 1 } ]
          ()
    done
  done;
  let last = n - 1 in
  tasks.(last) <-
    task ~id:last ~name:"reduce"
      ~inputs:(List.init members (fun m -> (m * stages) + stages))
      ~out_bytes
      ~impls:
        [ Cpu { flops = 1e7; bytes = float_of_int members *. stage_bytes;
                threads = 1 } ]
      ();
  of_tasks "ensemble" tasks
