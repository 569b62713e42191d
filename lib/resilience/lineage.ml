(* Output lineage: which nodes hold a copy of each task's output, and since
   when.

   The executor records the producing node at completion and every pull
   destination at arrival.  A copy is only valid if its node has not crashed
   since the copy was made (a restart wipes memory), so [choose] filters
   replicas through the fault plan.  When no valid copy survives, the output
   is lost and the producer must be recomputed. *)

type copy = { c_node : string; c_since : float }

type t = {
  faults : Faults.t;
  copies : (int, copy list) Hashtbl.t;  (* task -> copies, primary first *)
}

let create faults = { faults; copies = Hashtbl.create 64 }

let copies t ~task = Option.value ~default:[] (Hashtbl.find_opt t.copies task)

(* Record the producing node: becomes the primary (head) copy. *)
let record_primary t ~task ~node ~now =
  let rest =
    List.filter (fun c -> not (String.equal c.c_node node)) (copies t ~task)
  in
  Hashtbl.replace t.copies task ({ c_node = node; c_since = now } :: rest)

(* Record a pulled replica; the primary stays at the head. *)
let record_replica t ~task ~node ~now =
  let cs = copies t ~task in
  if not (List.exists (fun c -> String.equal c.c_node node) cs) then
    Hashtbl.replace t.copies task (cs @ [ { c_node = node; c_since = now } ])

let valid t ~now c =
  (not (Faults.node_dead t.faults ~node:c.c_node ~now))
  && not (Faults.down_between t.faults ~node:c.c_node ~t0:c.c_since ~t1:now)

(* Node to pull [task]'s output from.  The primary wins while it is valid —
   the fault-free fast path, identical to pre-lineage behaviour (always
   read from the producer).  Only when the primary is gone do replicas come
   into play: one on [prefer] first (free local read), else any survivor. *)
let choose t ~task ~prefer ~now =
  match copies t ~task with
  | [] -> None
  | primary :: _ when valid t ~now primary -> Some primary.c_node
  | cs -> (
      let live = List.filter (valid t ~now) cs in
      match List.find_opt (fun c -> String.equal c.c_node prefer) live with
      | Some c -> Some c.c_node
      | None -> ( match live with [] -> None | c :: _ -> Some c.c_node))

(* Copies tracked across all tasks — the memory the pruner bounds. *)
let total_copies t =
  Hashtbl.fold (fun _ cs acc -> acc + List.length cs) t.copies 0

(* Bound lineage memory at checkpoint/snapshot points.

   For every task that still has at least one valid copy, drop the
   invalidated copies (their nodes crashed — they can never satisfy a
   pull again) and cap surviving replicas at one beyond the first.  Tasks
   with no valid copy are left untouched.  Returns the number of copies
   dropped. *)
let prune t ~now =
  let keep_n = 2 in
  let dropped = ref 0 in
  let tasks = Hashtbl.fold (fun task _ acc -> task :: acc) t.copies [] in
  List.iter
    (fun task ->
      let cs = copies t ~task in
      let live = List.filter (valid t ~now) cs in
      if live <> [] then begin
        let kept = List.filteri (fun i _ -> i < keep_n) live in
        dropped := !dropped + List.length cs - List.length kept;
        Hashtbl.replace t.copies task kept
      end)
    tasks;
  !dropped

(* Checkpoint/restore: copies per task, sorted by task id for
   byte-deterministic serialization. *)
let export t =
  Hashtbl.fold
    (fun task cs acc ->
      (task, List.map (fun c -> (c.c_node, c.c_since)) cs) :: acc)
    t.copies []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
