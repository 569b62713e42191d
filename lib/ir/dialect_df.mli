(** [df] dialect: dataflow orchestration (the HyperLoom workflow layer).

    A [df.graph] region holds [df.task] ops; each task names its kernel
    function, consumes data values produced by other tasks and carries the
    data-characteristics annotations that drive compilation and
    scheduling. *)

open Ir

(** A task bound to kernel symbol [kernel]. *)
val task :
  ?attrs:(string * Attr.t) list ->
  ctx ->
  kernel:string ->
  value list ->
  Types.t list ->
  op

(** External data entering the workflow (sensor stream, archive). *)
val source : ?attrs:(string * Attr.t) list -> ctx -> string -> Types.t -> op

(** Named workflow output. *)
val sink : ctx -> string -> value -> op

(** Graph container holding the orchestration ops in its region. *)
val graph : ctx -> string -> op list -> op

val register : unit -> unit
