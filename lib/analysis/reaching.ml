(* The dominance-of-definition check: every use whose definition does not
   dominate it (e.g. a value defined in one branch of an [scf.if] and
   consumed after it).

   In this structured SSA IR dominance is syntactic scoping: a definition
   dominates a use iff it appears earlier in the same block or in an
   enclosing one.  Straight regions (df.graph, hw.kernel bodies) run
   exactly once, so their definitions behave like the enclosing block's;
   Loop and Branch region definitions go out of scope when the op ends.
   A single walk with a scoped symbol table therefore yields the offending
   uses in O(ops). *)

open Everest_ir

type undominated = { u_op : Ir.op; u_vid : int }

let undominated_uses (f : Ir.func) : undominated list =
  let defined = Hashtbl.create 64 in
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let define scope (v : Ir.value) =
    Hashtbl.replace defined v.Ir.vid ();
    match scope with Some l -> l := v.Ir.vid :: !l | None -> ()
  in
  let check (o : Ir.op) =
    List.iter
      (fun (v : Ir.value) ->
        if not (Hashtbl.mem defined v.Ir.vid) then begin
          let key = (o.Ir.name, v.Ir.vid) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            out := { u_op = o; u_vid = v.Ir.vid } :: !out
          end
        end)
      o.Ir.operands
  in
  let rec walk_op scope (o : Ir.op) =
    check o;
    (match (Dataflow.region_kind o, o.Ir.regions) with
    | _, [] -> ()
    | Dataflow.Straight, regions -> List.iter (walk_region scope) regions
    | _, regions ->
        (* each region is its own scope: an scf.if arm must not see the
           other arm's definitions, and nothing escapes the op *)
        List.iter
          (fun r ->
            let inner = ref [] in
            walk_region (Some inner) r;
            List.iter (Hashtbl.remove defined) !inner)
          regions);
    List.iter (define scope) o.Ir.results
  and walk_region scope r = List.iter (walk_block scope) r
  and walk_block scope (b : Ir.block) =
    List.iter (define scope) b.Ir.bargs;
    List.iter (walk_op scope) b.Ir.body
  in
  List.iter (define None) f.Ir.fargs;
  List.iter (walk_op None) f.Ir.fbody;
  List.rev !out
