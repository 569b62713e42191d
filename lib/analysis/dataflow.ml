(* Generic monotone dataflow engine over the structured IR.

   The IR has no CFG edges: control flow is expressed by ops carrying
   regions (scf.for, scf.if, df.graph, ...).  The engine therefore walks
   op chains and interprets each region by kind:

   - [Straight]: the region body runs exactly once (df.graph, hw.kernel);
   - [Loop]: the body may run any number of times (scf.for, scf.parallel,
     scf.while); the engine iterates the body to a fixpoint, joining the
     loop-entry state with each body exit so loop-carried facts stabilise;
   - [Branch]: exactly one region runs (scf.if); exit states of the
     feasible regions are joined, plus the fall-through state when the
     else region is missing.

   Transfer functions receive the whole operation, so clients can record
   per-op facts (diagnostics, value tables) in closures while the engine
   drives iteration order.  [branch_filter] lets a client prune infeasible
   regions — this is what makes the constant propagation in {!Constprop}
   "sparse conditional". *)

open Everest_ir

type region_kind = Straight | Loop | Branch

let region_kind (o : Ir.op) =
  match o.Ir.name with
  | "scf.if" -> Branch
  | "scf.for" | "scf.parallel" | "scf.while" -> Loop
  | _ -> Straight

(* A loop region is iterated at most this many times past the fixpoint
   check. *)
let max_iter = 64

module Make (L : Lattice.LATTICE) = struct
  type hooks = {
    transfer : L.t -> Ir.op -> L.t;
    enter_block : L.t -> Ir.op -> Ir.block -> L.t;
    leave_block : L.t -> Ir.op -> Ir.block -> L.t;
    branch_filter : L.t -> Ir.op -> int list option;
  }

  let hooks ?(enter_block = fun s _ _ -> s) ?(leave_block = fun s _ _ -> s)
      ?(branch_filter = fun _ _ -> None) transfer =
    { transfer; enter_block; leave_block; branch_filter }

  let taken_indices h s o regions =
    match h.branch_filter s o with
    | None -> List.mapi (fun i _ -> i) regions
    | Some l -> l

  (* ---- forward ---------------------------------------------------------- *)

  let rec forward h s ops = List.fold_left (fwd_op h) s ops

  and fwd_region h s o (r : Ir.region) =
    List.fold_left
      (fun s (b : Ir.block) ->
        let s = h.enter_block s o b in
        let s = forward h s b.Ir.body in
        h.leave_block s o b)
      s r

  and fwd_op h s (o : Ir.op) =
    match o.Ir.regions with
    | [] -> h.transfer s o
    | regions -> (
        match region_kind o with
        | Straight ->
            let s =
              List.fold_left (fun s r -> fwd_region h s o r) s regions
            in
            h.transfer s o
        | Loop ->
            let rec iterate s n =
              let out =
                List.fold_left
                  (fun acc r -> fwd_region h acc o r)
                  s regions
              in
              let s' = L.join s out in
              if L.equal s' s || n >= max_iter then s' else iterate s' (n + 1)
            in
            h.transfer (iterate s 0) o
        | Branch ->
            let taken = taken_indices h s o regions in
            let outs =
              List.concat
                (List.mapi
                   (fun i r ->
                     if List.mem i taken then [ fwd_region h s o r ]
                     else [])
                   regions)
            in
            (* A single-region scf.if may be skipped entirely; likewise when
               every region is pruned the entry state falls through. *)
            let states =
              if List.length regions < 2 || outs = [] then s :: outs else outs
            in
            let joined =
              List.fold_left L.join (List.hd states) (List.tl states)
            in
            h.transfer joined o)

  (* ---- backward --------------------------------------------------------- *)

  (* The op's own transfer is applied to the state flowing in from below
     before its regions are walked: the regions are "inside" the op, so in
     reverse execution order they come after it. *)

  let rec backward h s ops =
    List.fold_left (fun s o -> bwd_op h s o) s (List.rev ops)

  and bwd_region h s o (r : Ir.region) =
    List.fold_left
      (fun s (b : Ir.block) ->
        let s = h.enter_block s o b in
        let s = backward h s b.Ir.body in
        h.leave_block s o b)
      s (List.rev r)

  and bwd_op h s (o : Ir.op) =
    let s1 = h.transfer s o in
    match o.Ir.regions with
    | [] -> s1
    | regions -> (
        match region_kind o with
        | Straight ->
            List.fold_left
              (fun s r -> bwd_region h s o r)
              s1 (List.rev regions)
        | Loop ->
            let rec iterate s n =
              let out =
                List.fold_left
                  (fun acc r -> bwd_region h acc o r)
                  s regions
              in
              let s' = L.join s out in
              if L.equal s' s || n >= max_iter then s' else iterate s' (n + 1)
            in
            iterate s1 0
        | Branch ->
            (* join every region exit with the fall-through state [s1]; a
               pruning filter is rarely useful backwards, so all regions are
               considered. *)
            let outs = List.map (fun r -> bwd_region h s1 o r) regions in
            List.fold_left L.join s1 outs)
end
