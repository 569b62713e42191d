(* Lattices for the monotone dataflow framework.

   Every analysis instantiates the engine with a join-semilattice: [bottom]
   is the identity of [join], and transfer functions must be monotone so
   the fixpoint iteration in [Dataflow] terminates on lattices of finite
   height.  Must-analyses ("holds on every path") are expressed with dual
   lattices whose [join] is set intersection, so the same forward solver
   serves both directions of approximation. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
  val pp : Format.formatter -> t -> unit
end

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

(* Flat (constant-propagation style) lattice: Bot < Const x < Top. *)
module Flat (X : sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end) =
struct
  type elt = X.t
  type t = Bot | Const of elt | Top

  let bottom = Bot
  let top = Top
  let const x = Const x

  let equal a b =
    match (a, b) with
    | Bot, Bot | Top, Top -> true
    | Const x, Const y -> X.equal x y
    | _ -> false

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Top, _ | _, Top -> Top
    | Const x, Const y -> if X.equal x y then a else Top

  let pp ppf = function
    | Bot -> Fmt.string ppf "bot"
    | Const x -> X.pp ppf x
    | Top -> Fmt.string ppf "top"
end

(* May-powerset over value ids: join is union.  Used by liveness and
   may-reaching definitions. *)
module Int_set = struct
  type t = IntSet.t

  let bottom = IntSet.empty
  let equal = IntSet.equal
  let join = IntSet.union

  let pp ppf s =
    Fmt.pf ppf "{%a}"
      Fmt.(list ~sep:(any ",") int)
      (IntSet.elements s)
end

(* Pointwise lift of [L] to finite maps keyed by value id; absent keys are
   [L.bottom]. *)
module Int_map (L : LATTICE) = struct
  type t = L.t IntMap.t

  let bottom = IntMap.empty

  let find i m =
    match IntMap.find_opt i m with Some x -> x | None -> L.bottom

  let add = IntMap.add
  let equal = IntMap.equal L.equal
  let join a b = IntMap.union (fun _ x y -> Some (L.join x y)) a b

  let pp ppf m =
    Fmt.pf ppf "{%a}"
      Fmt.(
        list ~sep:(any "; ")
          (pair ~sep:(any "->") int L.pp))
      (IntMap.bindings m)
end
