(* The iterated dead-op rule that [Everest_ir.Transforms.dead_ops]
   replaced, kept verbatim as a test oracle: each round refolds the whole
   function, collecting the operands of the ops not yet condemned, and
   condemns every deletable op none of whose results is among them, until
   a round changes nothing.  A dead chain of k ops costs k rounds, so it is
   exact by inspection and quadratic on long chains.  The worklist rule is
   checked against it. *)

open Everest_ir
open Ir

module IntSet = Set.Make (Int)

let deletable (o : op) = Dialect.is_pure o && o.regions = [] && o.results <> []

let condemned dead (o : op) =
  deletable o
  && List.for_all (fun (r : value) -> IntSet.mem r.vid dead) o.results

let dead_results ops =
  let rec go dead =
    (* uses, not counting operands of already-condemned ops *)
    let used =
      fold_ops
        (fun acc o ->
          if condemned dead o then acc
          else
            List.fold_left (fun acc (v : value) -> IntSet.add v.vid acc) acc o.operands)
        IntSet.empty ops
    in
    let dead' =
      fold_ops
        (fun acc (o : op) ->
          if
            deletable o
            && List.for_all (fun (r : value) -> not (IntSet.mem r.vid used)) o.results
          then
            List.fold_left (fun acc (r : value) -> IntSet.add r.vid acc) acc o.results
          else acc)
        dead ops
    in
    if IntSet.equal dead' dead then dead else go dead'
  in
  go IntSet.empty

let dead_ops (f : func) =
  let dead = dead_results f.fbody in
  List.rev
    (fold_ops (fun acc o -> if condemned dead o then o :: acc else acc) [] f.fbody)
