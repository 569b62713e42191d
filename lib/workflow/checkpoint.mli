(** Crash-consistent checkpointing for the workflow executor.

    The executor is deterministic in (cluster, plan, faults, policy), so
    recovery is journaled replay: each first completion of a task is one
    write-ahead record; a restarted run re-executes from t=0, verifying
    every re-derived completion byte-for-byte against the journal.
    Snapshots act as integrity anchors (the resumable-state digest every
    [every] completions, re-checked during replay) and as the points where
    {!Everest_resilience.Lineage.prune} bounds replica-tracking memory —
    pruning happens at the same completion counts in the original and the
    replayed run, so it never perturbs byte-identity. *)

type t

(** {2 Persisted formats} *)

(** A snapshot body: completion count, then the executor's state digest
    at that count. *)
val snapshot : (int * string) Everest_recovery.Codec.t

(** A journal record: task, completion time, node. *)
val journal_record : (int * float * string) Everest_recovery.Codec.t

(** A fresh checkpointed run over [store] (snapshot every [every] first
    completions).  @raise Invalid_argument when [every <= 0]. *)
val create : store:Everest_recovery.Store.t -> every:int -> t

(** Resume a crashed run: loads the newest valid snapshot as the
    verification anchor and the whole journal (from t=0) as the replay
    tail.  [every] must match the original run.
    @raise Everest_recovery.Store.Recovery_error when no valid snapshot
    survives or the snapshot body is malformed. *)
val resume : store:Everest_recovery.Store.t -> every:int -> t

(** Called by the executor before the first task launches; [state] is the
    zero-state digest.  Writes the genesis snapshot (fresh run) or
    verifies it (resumed run anchored on genesis).
    @raise Everest_recovery.Store.Recovery_error on anchor divergence. *)
val start : t -> state:(unit -> string) -> unit

(** Called by the executor on each first completion.  [state] digests the
    resumable state; [prune] bounds lineage and returns the dropped-copy
    count.  May raise {!Everest_recovery.Journal.Crashed} when a crash was
    armed on the store, or
    {!Everest_recovery.Store.Recovery_error} ([Replay_divergence]) when
    the re-derived record or a snapshot anchor does not match the
    journal. *)
val on_complete :
  t ->
  task:int ->
  now:float ->
  node:string ->
  state:(unit -> string) ->
  prune:(unit -> int) ->
  unit
