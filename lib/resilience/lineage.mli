(** Output lineage: which nodes hold a copy of each task's output and since
    when.  A copy is valid only if its node has not crashed since the copy
    was made (a restart wipes memory); when no valid copy survives the
    output is lost and the producer must be recomputed. *)

type t

val create : Faults.t -> t

(** Record the producing node; becomes the primary copy. *)
val record_primary : t -> task:int -> node:string -> now:float -> unit

(** Record a node that pulled (and now holds) a replica. *)
val record_replica : t -> task:int -> node:string -> now:float -> unit

(** Node to pull from: the primary while valid (the fault-free fast path),
    else a replica on [prefer], else any survivor, else [None] (lost). *)
val choose : t -> task:int -> prefer:string -> now:float -> string option

(** Copies tracked across all tasks — the memory {!prune} bounds. *)
val total_copies : t -> int

(** Bound lineage memory at checkpoint points: for tasks that still have
    a valid copy, drop invalidated copies and cap replicas at one beyond
    the primary.  Tasks with no valid copy are untouched.  Returns the
    number of copies dropped. *)
val prune : t -> now:float -> int

(** Checkpoint/restore: copies per task (node, since), primary first,
    sorted by task id. *)
val export : t -> (int * (string * float) list) list
