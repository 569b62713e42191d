(* Static information-flow tracking over the IR.

   Values carry confidentiality levels (the sec dialect lattice); this
   analysis propagates levels through a function body and reports flows
   where data of a higher level reaches a sink whose clearance is lower
   (df.sink, memref.store to a lower-level buffer, or an explicit
   sec.check).  [sec.encrypt] declassifies: ciphertext is Public.

   Arguments take the function's "everest.security" attribute (attached
   by the DSL front-end from [Annot.Security]), so annotated kernels are
   analyzed at their declared level.
   Classification applied inside the body ([sec.classify] as the first
   ops on the arguments) works as before.

   Ops with regions join the levels yielded by their region terminators
   into their results, so a value classified inside an [scf.if] branch
   keeps its level when it flows out through [scf.yield]. *)

open Everest_ir

type level = Dialect_sec.level

type flow_violation = {
  op_name : string;
  source_level : level;
  sink_level : level;
  detail : string;
  vloc : Loc.t;
}

let pp_violation ppf v =
  Fmt.pf ppf "%s: %s data reaches %s sink (%s)%a" v.op_name
    (Dialect_sec.level_name v.source_level)
    (Dialect_sec.level_name v.sink_level)
    v.detail
    (fun ppf -> function
      | Loc.Unknown -> ()
      | l -> Fmt.pf ppf " at %a" Loc.pp l)
    v.vloc

let join (a : level) (b : level) = if Dialect_sec.level_leq a b then b else a

(* Level of a value: max over sources flowing into it. *)
let analyze_func (f : Ir.func) : flow_violation list =
  let levels : (int, level) Hashtbl.t = Hashtbl.create 64 in
  let level_of (v : Ir.value) =
    Option.value ~default:Dialect_sec.Public (Hashtbl.find_opt levels v.Ir.vid)
  in
  let func_level =
    Option.bind
      (Attr.find_str "everest.security" f.Ir.fattrs)
      Dialect_sec.level_of_name
  in
  Option.iter
    (fun l -> List.iter (fun (v : Ir.value) -> Hashtbl.replace levels v.Ir.vid l) f.Ir.fargs)
    func_level;
  let violations = ref [] in
  let violation (o : Ir.op) ~source ~sink detail =
    violations :=
      { op_name = o.Ir.name; source_level = source; sink_level = sink;
        detail; vloc = o.Ir.loc }
      :: !violations
  in
  let sink_clearance (o : Ir.op) =
    match Ir.attr_str "everest.security" o with
    | Some s -> Option.value ~default:Dialect_sec.Public (Dialect_sec.level_of_name s)
    | None -> Dialect_sec.Public
  in
  let rec walk ops = List.iter step ops
  and step (o : Ir.op) =
    let in_level =
      List.fold_left (fun acc v -> join acc (level_of v)) Dialect_sec.Public
        o.Ir.operands
    in
    (* regions first: block args inherit the op input level, and the
       levels of the region terminators feed the op results below *)
    List.iter
      (fun region ->
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (fun (v : Ir.value) -> Hashtbl.replace levels v.Ir.vid in_level)
              b.Ir.bargs;
            walk b.Ir.body)
          region)
      o.Ir.regions;
    let yield_level =
      List.fold_left
        (fun acc (region : Ir.region) ->
          List.fold_left
            (fun acc (b : Ir.block) ->
              match List.rev b.Ir.body with
              | (t : Ir.op) :: _
                when String.equal t.Ir.name "scf.yield"
                     || String.equal t.Ir.name "hw.yield" ->
                  List.fold_left
                    (fun acc v -> join acc (level_of v))
                    acc t.Ir.operands
              | _ -> acc)
            acc region)
        Dialect_sec.Public o.Ir.regions
    in
    let out_level = join in_level yield_level in
    match o.Ir.name with
    | "sec.classify" -> (
        match
          Option.bind (Ir.attr_str "level" o) Dialect_sec.level_of_name
        with
        | Some l ->
            List.iter
              (fun (r : Ir.value) -> Hashtbl.replace levels r.Ir.vid (join l in_level))
              o.Ir.results
        | None -> ())
    | "sec.encrypt" | "sec.mac" ->
        (* ciphertext / tags are public *)
        List.iter
          (fun (r : Ir.value) ->
            Hashtbl.replace levels r.Ir.vid Dialect_sec.Public)
          o.Ir.results
    | "sec.decrypt" ->
        List.iter
          (fun (r : Ir.value) ->
            Hashtbl.replace levels r.Ir.vid Dialect_sec.Confidential)
          o.Ir.results
    | "sec.taint" ->
        (* tainted data is at least Confidential until checked *)
        List.iter
          (fun (r : Ir.value) ->
            Hashtbl.replace levels r.Ir.vid
              (join in_level Dialect_sec.Confidential))
          o.Ir.results
    | "sec.check" ->
        (* explicit check point: a sink whose clearance comes from the
           everest.security attribute (default Public) *)
        let clearance = sink_clearance o in
        if not (Dialect_sec.level_leq in_level clearance) then
          violation o ~source:in_level ~sink:clearance "sec.check point";
        List.iter
          (fun (r : Ir.value) -> Hashtbl.replace levels r.Ir.vid in_level)
          o.Ir.results
    | "df.sink" ->
        let clearance = sink_clearance o in
        if not (Dialect_sec.level_leq in_level clearance) then
          violation o ~source:in_level ~sink:clearance
            (Option.value ~default:"?" (Ir.attr_str "name" o))
    | "memref.store" ->
        (* a store missing its operands is the verifier's finding *)
        (match o.Ir.operands with
        | data :: dst :: _ ->
            let clearance = level_of dst in
            let data_level = level_of data in
            let allowed = join clearance Dialect_sec.Internal in
            if (not (Dialect_sec.level_leq data_level allowed))
               && clearance = Dialect_sec.Public
            then
              violation o ~source:data_level ~sink:clearance
                "store to public buffer"
        | _ -> ());
        List.iter
          (fun (r : Ir.value) -> Hashtbl.replace levels r.Ir.vid in_level)
          o.Ir.results
    | _ ->
        List.iter
          (fun (r : Ir.value) -> Hashtbl.replace levels r.Ir.vid out_level)
          o.Ir.results
  in
  walk f.Ir.fbody;
  List.rev !violations

let analyze_module (m : Ir.modul) =
  List.concat_map
    (fun f -> List.map (fun v -> (f.Ir.fname, v)) (analyze_func f))
    m.Ir.funcs
