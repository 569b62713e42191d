(* Fixed-size domain pool for the compiler's embarrassingly parallel stages
   (variant evaluation, DSE).

   A pool of [domains] OCaml 5 domains shares a lock-protected queue of
   chunked index ranges.  The submitting domain participates in the work, so
   a pool of size 1 spawns no domains at all and degrades to plain
   sequential evaluation — `dune runtest` stays deterministic on one core.
   Output ordering of [parallel_map] is positional regardless of completion
   order, so results are identical to the sequential path whenever the task
   function is pure. *)

type job = {
  run : int -> unit;  (* execute item [i]; writes results into caller slots *)
  n : int;
  chunk : int;  (* indices claimed per lock acquisition *)
  mutable next : int;  (* next unclaimed index *)
  mutable live : int;  (* chunks claimed but not yet completed *)
  mutable failed : (exn * Printexc.raw_backtrace) option;  (* first failure *)
  finished : Condition.t;  (* signalled (with the pool mutex) when drained *)
}

type t = {
  m : Mutex.t;
  work : Condition.t;  (* workers wait here for jobs *)
  jobs : job Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  tasks : int array;  (* items executed per slot; slot 0 = submitting domain *)
  size : int;  (* total domains including the submitter *)
}

(* Pool size resolution: explicit argument, then the EVEREST_DOMAINS
   environment variable, then whatever the runtime recommends for the
   machine. *)
let default_domains () =
  match Sys.getenv_opt "EVEREST_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | _ -> 1)
  | None -> max 1 (Domain.recommended_domain_count ())

(* Claim the next chunk of [j], or report it drained.  Caller holds [t.m].
   After a failure no further work is handed out: remaining items are
   abandoned and the exception is re-raised at the submission site. *)
let claim j =
  if j.failed <> None || j.next >= j.n then None
  else begin
    let lo = j.next in
    let hi = min j.n (lo + j.chunk) in
    j.next <- hi;
    j.live <- j.live + 1;
    Some (lo, hi)
  end

let job_drained j = (j.next >= j.n || j.failed <> None) && j.live = 0

(* Run chunk [lo, hi) of [j] outside the lock, then account for it. *)
let exec t slot j (lo, hi) =
  let result =
    match
      for i = lo to hi - 1 do
        j.run i
      done
    with
    | () -> Ok (hi - lo)
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock t.m;
  (match result with
  | Ok k -> t.tasks.(slot) <- t.tasks.(slot) + k
  | Error eb -> if j.failed = None then j.failed <- Some eb);
  j.live <- j.live - 1;
  if job_drained j then Condition.broadcast j.finished;
  Mutex.unlock t.m

(* Worker domains loop here: find the front job with work left, claim a
   chunk, run it; drop drained jobs; park on [work] when idle. *)
let rec worker_loop t slot =
  Mutex.lock t.m;
  let rec get () =
    if t.stop then None
    else
      match Queue.peek_opt t.jobs with
      | None ->
          Condition.wait t.work t.m;
          get ()
      | Some j -> (
          match claim j with
          | Some range -> Some (j, range)
          | None ->
              (* drained (or failed): retire it and look again *)
              ignore (Queue.pop t.jobs);
              get ())
  in
  match get () with
  | None -> Mutex.unlock t.m
  | Some (j, range) ->
      Mutex.unlock t.m;
      exec t slot j range;
      worker_loop t slot

let create ?domains () =
  let size =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let t =
    { m = Mutex.create (); work = Condition.create (); jobs = Queue.create ();
      stop = false; workers = []; tasks = Array.make size 0; size }
  in
  if size > 1 then
    t.workers <-
      List.init (size - 1) (fun k ->
          Domain.spawn (fun () -> worker_loop t (k + 1)));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Submit [n] items and help drain them from the submitting domain.  Blocks
   until every claimed chunk has completed, then re-raises the first worker
   exception, if any. *)
let run_items t ~n run =
  if n > 0 then begin
    let chunk = max 1 (n / (4 * t.size)) in
    let j =
      { run; n; chunk; next = 0; live = 0; failed = None;
        finished = Condition.create () }
    in
    Mutex.lock t.m;
    Queue.push j t.jobs;
    Condition.broadcast t.work;
    let rec help () =
      match claim j with
      | Some range ->
          Mutex.unlock t.m;
          exec t 0 j range;
          Mutex.lock t.m;
          help ()
      | None -> ()
    in
    help ();
    while not (job_drained j) do
      Condition.wait j.finished t.m
    done;
    (* retire the job if no worker got to it first *)
    (match Queue.peek_opt t.jobs with
    | Some j' when j' == j -> ignore (Queue.pop t.jobs)
    | _ -> ());
    let failed = j.failed in
    Mutex.unlock t.m;
    match failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_map t f xs =
  if t.size <= 1 then List.map f xs  (* sequential fallback, no queue *)
  else
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | _ ->
        let arr = Array.of_list xs in
        let n = Array.length arr in
        let out = Array.make n None in
        (* slots are disjoint, so unsynchronized writes are safe *)
        run_items t ~n (fun i -> out.(i) <- Some (f arr.(i)));
        List.init n (fun i ->
            match out.(i) with Some v -> v | None -> assert false)

(* Map in parallel, combine sequentially in input order: the reduction is
   deterministic for any [combine], associative or not. *)
let stats t =
  Mutex.lock t.m;
  let a = Array.copy t.tasks in
  Mutex.unlock t.m;
  a

(* Per-domain task gauges, published from the submitting domain. *)
let publish_stats t =
  let module M = Everest_telemetry.Metrics in
  Array.iteri
    (fun i n ->
      M.set
        (M.gauge ~labels:[ ("domain", string_of_int i) ]
           "pool_domain_tasks")
        (float_of_int n))
    (stats t);
  M.set (M.gauge "pool_domains") (float_of_int t.size)

(* ---- process-wide default pool -------------------------------------------------- *)

let default_lock = Mutex.create ()
let default_pool = ref None

(* The shared pool used when callers do not pass one; sized by
   EVEREST_DOMAINS or the runtime's recommendation, created on first use. *)
let default () =
  Mutex.lock default_lock;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_lock;
  p
