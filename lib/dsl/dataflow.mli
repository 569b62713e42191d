(** Workflow/dataflow eDSL (the HyperLoom-facing layer).

    An application is an end-to-end pipeline of tasks of various granularity
    (paper §III-A): sources feed kernels, kernels feed sinks.  Kernels are
    tensor expressions, opaque external nodes (C/C++ tasks with cost
    estimates), or AI model invocations.  Nodes carry the annotations that
    drive compilation. *)

type kernel =
  | Tensor_kernel of Tensor_expr.expr
  | External of { lang : string; est_flops : int; est_bytes : int }
  | Ai_model of { layers : int list; activation : string }

type node = {
  nid : int;
  nname : string;
  kernel : kernel option;  (** [None] for pure sources. *)
  deps : node list;
  annots : Annot.t list;
  out_bytes : int;
}

(** A graph under construction.  Fields are exposed for the compiler; use
    the builders below to mutate. *)
type graph = {
  gname : string;
  mutable rev_nodes : node list;
  mutable next_id : int;
  mutable sinks : (string * node) list;
}

val create : string -> graph

(** [source g name ~bytes] adds an external data source producing [bytes]. *)
val source : ?annots:Annot.t list -> graph -> string -> bytes:int -> node

(** [task g name kernel ~deps] adds a computation consuming [deps]; its
    output size is estimated from the kernel.
    @raise Invalid_argument when a dependency belongs to another graph. *)
val task :
  ?annots:Annot.t list ->
  graph ->
  string ->
  kernel ->
  deps:node list ->
  node

(** Mark [node] as a named workflow output. *)
val sink : graph -> string -> node -> unit

(** Nodes in topological (construction) order. *)
val nodes : graph -> node list

val sinks : graph -> (string * node) list
val kernel_flops : kernel option -> int

(** Check name uniqueness, dependency ordering and sink membership. *)
val validate : graph -> (unit, string list) result
