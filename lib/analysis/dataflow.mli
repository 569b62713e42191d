(** Generic monotone dataflow engine over the structured IR.

    The IR has no CFG edges: control flow is expressed by ops carrying
    regions.  The engine walks op chains and interprets each region by
    kind — [Straight] regions run once, [Loop] regions are iterated to a
    fixpoint (joining entry and exit states), and [Branch] regions have
    their exit states joined.  Transfer functions receive the whole op so
    clients can record per-op facts in closures. *)

open Everest_ir

type region_kind = Straight | Loop | Branch

(** Kind of the regions of an op: [scf.if] branches, [scf.for] /
    [scf.parallel] / [scf.while] loop, everything else runs straight
    through. *)
val region_kind : Ir.op -> region_kind

module Make (L : Lattice.LATTICE) : sig
  type hooks = {
    transfer : L.t -> Ir.op -> L.t;  (** Per-op state update. *)
    enter_block : L.t -> Ir.op -> Ir.block -> L.t;
        (** Bind block arguments when a region block is entered. *)
    leave_block : L.t -> Ir.op -> Ir.block -> L.t;
        (** Unbind block-local facts when a block is left. *)
    branch_filter : L.t -> Ir.op -> int list option;
        (** Indices of the feasible regions of a [Branch] op ([None] = all);
            used for sparse conditional analyses. *)
  }

  (** Smart constructor: [enter_block]/[leave_block] default to identity,
      [branch_filter] to "all feasible". *)
  val hooks :
    ?enter_block:(L.t -> Ir.op -> Ir.block -> L.t) ->
    ?leave_block:(L.t -> Ir.op -> Ir.block -> L.t) ->
    ?branch_filter:(L.t -> Ir.op -> int list option) ->
    (L.t -> Ir.op -> L.t) ->
    hooks

  (** [forward h init ops] runs the ops in program order; loop regions are
      iterated at most 64 times past the fixpoint check. *)
  val forward : hooks -> L.t -> Ir.op list -> L.t

  (** [backward h init ops] runs the ops in reverse program order (the op
      transfer fires before its regions are walked). *)
  val backward : hooks -> L.t -> Ir.op list -> L.t
end
