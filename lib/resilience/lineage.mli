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

(** Nodes with a valid copy at [now], primary first. *)
val locations : t -> task:int -> now:float -> string list

(** Node to pull from: the primary while valid (the fault-free fast path),
    else a replica on [prefer], else any survivor, else [None] (lost). *)
val choose : t -> task:int -> prefer:string -> now:float -> string option

(** Produced at least once but no valid copy survives. *)
val lost : t -> task:int -> now:float -> bool

(** Copies tracked across all tasks — the memory {!prune} bounds. *)
val total_copies : t -> int

(** Bound lineage memory at checkpoint points: for tasks that still have
    a valid copy, drop invalidated copies and cap replicas at
    [keep_replicas] (default 1) beyond the primary.  Tasks with no valid
    copy are untouched so {!lost} stays accurate.  Returns the number of
    copies dropped. *)
val prune : ?keep_replicas:int -> t -> now:float -> int

(** Checkpoint/restore: copies per task (node, since), primary first,
    sorted by task id. *)
val export : t -> (int * (string * float) list) list
