(** Lattices for the monotone dataflow framework.

    An analysis instantiates {!Dataflow.Make} with a join-semilattice:
    [bottom] is the identity of [join] and transfer functions must be
    monotone, so fixpoint iteration terminates on lattices of finite
    height.  Must-analyses ("holds on every path") use dual lattices whose
    [join] is intersection. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
  val pp : Format.formatter -> t -> unit
end

module IntSet : Set.S with type elt = int
module IntMap : Map.S with type key = int

(** Flat (constant-propagation) lattice: [Bot < Const x < Top]. *)
module Flat (X : sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end) : sig
  type elt = X.t
  type t = Bot | Const of elt | Top

  include LATTICE with type t := t

  val top : t
  val const : elt -> t
end

(** May-powerset over value ids; [join] is union. *)
module Int_set : LATTICE with type t = IntSet.t

(** Pointwise lift of [L] to maps keyed by value id; absent keys are
    [L.bottom]. *)
module Int_map (L : LATTICE) : sig
  type t = L.t IntMap.t

  include LATTICE with type t := t

  val find : int -> t -> L.t
  val add : int -> L.t -> t -> t
end
