(* Backward liveness over SSA value ids.

   Liveness runs through the generic engine: the transfer kills results
   and gens operands; block arguments are killed when their block is left
   (in backward order, after its body).  For a well-formed function the
   values live on entry are a subset of the formal arguments — anything
   else is a use of an undefined value. *)

open Everest_ir
module IntSet = Lattice.IntSet
module E = Dataflow.Make (Lattice.Int_set)

let transfer s (o : Ir.op) =
  let s =
    List.fold_left
      (fun s (r : Ir.value) -> IntSet.remove r.Ir.vid s)
      s o.Ir.results
  in
  List.fold_left (fun s (v : Ir.value) -> IntSet.add v.Ir.vid s) s o.Ir.operands

let leave_block s _o (b : Ir.block) =
  List.fold_left (fun s (v : Ir.value) -> IntSet.remove v.Ir.vid s) s b.Ir.bargs

let hooks = E.hooks ~leave_block transfer

(* Values live on entry to [f]. *)
let live_in (f : Ir.func) : IntSet.t = E.backward hooks IntSet.empty f.Ir.fbody
