(* Crash-consistent checkpointing for the workflow executor.

   The executor is a deterministic function of (cluster, plan, faults,
   policy), so its recovery model is journaled replay: every first
   completion of a task is one write-ahead record, and a restarted run
   re-executes the plan from t=0 while *verifying* each re-derived
   completion against the journal — any divergence is a typed error, not
   a silently different answer.  Snapshots are not restore points here
   (there is no state to warp into a half-built Desim heap); they are
   integrity anchors: every [every] completions the executor's resumable
   digest — completion counts, finish times, lineage, RNG position — is
   written, and replay byte-compares the re-derived digest when it passes
   the same completion count.  Snapshot boundaries are also where lineage
   is pruned, which is what bounds replica-tracking memory on long runs
   (and, because pruning happens at the same counts in the original and
   the replayed run, never perturbs byte-identity). *)

module Store = Everest_recovery.Store
module Codec = Everest_recovery.Codec

type t = {
  ck_store : Store.t;
  ck_every : int;
  mutable ck_completions : int;
  mutable ck_next_snap : int;
  (* integrity anchor carried by the resume plan: the digest the original
     run wrote at [ck_anchor_count] completions *)
  mutable ck_anchor : (int * string) option;
}

(* A snapshot body: the completion count and the executor's state
   digest at that count. *)
let snapshot = Codec.(pair int string)

(* One journal record: task, completion time, node. *)
let journal_record = Codec.(triple int float string)

let create ~store ~every =
  if every <= 0 then invalid_arg "Checkpoint.create: every <= 0";
  { ck_store = store; ck_every = every; ck_completions = 0; ck_next_snap = 0;
    ck_anchor = None }

let resume ~store ~every =
  if every <= 0 then invalid_arg "Checkpoint.resume: every <= 0";
  let plan = Store.plan_resume ~genesis:true store in
  let anchor =
    try Codec.decode snapshot plan.Store.r_state
    with Codec.Decode why ->
      raise (Store.Recovery_error (Store.Corrupt ("snapshot schema: " ^ why)))
  in
  { ck_store = store; ck_every = every; ck_completions = 0;
    ck_next_snap = plan.Store.r_next_snapshot_index; ck_anchor = Some anchor }

(* The resume anchor must equal the state re-derived at its completion
   count. *)
let verify_anchor t got =
  match t.ck_anchor with
  | Some (count, expected)
    when count = t.ck_completions && not (String.equal expected got) ->
      raise
        (Store.Recovery_error (Store.Replay_divergence { expected; got }))
  | _ -> ()

(* Genesis: executed before the first task launches.  A fresh run anchors
   snapshot 0 at zero completions; a resumed run whose anchor *is* the
   genesis snapshot verifies the zero-state digest immediately. *)
let start t ~state =
  match t.ck_anchor with
  | None ->
      Store.write_snapshot t.ck_store ~index:0 (Codec.encode snapshot (0, state ()));
      t.ck_next_snap <- 1
  | Some (0, _) -> verify_anchor t (state ())
  | Some _ -> ()

(* One first-completion: WAL record (live) or replay verification, then,
   at [every]-completion boundaries, prune + snapshot (live) / anchor
   check (replay).  [state] must be a pure digest of the resumable state;
   [prune] runs at boundaries in *both* modes so pruning never makes the
   replayed run diverge. *)
let on_complete t ~task ~now ~node ~state ~prune =
  Store.log t.ck_store journal_record (task, now, node);
  t.ck_completions <- t.ck_completions + 1;
  if t.ck_completions mod t.ck_every = 0 then begin
    ignore (prune () : int);
    if Store.replaying t.ck_store then verify_anchor t (state ())
    else begin
      Store.write_snapshot t.ck_store ~index:t.ck_next_snap
        (Codec.encode snapshot (t.ck_completions, state ()));
      t.ck_next_snap <- t.ck_next_snap + 1
    end
  end
