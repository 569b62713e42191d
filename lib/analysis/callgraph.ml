(* Call graph over module functions.

   Edges come from every symbol reference an op can carry: [func.call]
   @callee, [hw.offload] @kernel and [df.task] @kernel.  Roots are [main]
   plus any function carrying an [everest.entry] attribute; when a module
   has no root at all (a kernel library), reachability-based rules are
   skipped rather than flagging everything. *)

open Everest_ir
module SSet = Set.Make (String)

type reference = { ref_from : string; ref_to : string }

let op_callee (o : Ir.op) =
  match o.Ir.name with
  | "func.call" -> Ir.attr_sym "callee" o
  | "hw.offload" | "df.task" -> Ir.attr_sym "kernel" o
  | _ -> None

let references (m : Ir.modul) : reference list =
  let out = ref [] in
  List.iter
    (fun (f : Ir.func) ->
      Ir.iter_ops
        (fun o ->
          match op_callee o with
          | Some callee ->
              out := { ref_from = f.Ir.fname; ref_to = callee } :: !out
          | None -> ())
        f.Ir.fbody)
    m.Ir.funcs;
  List.rev !out

let roots (m : Ir.modul) : string list =
  List.filter_map
    (fun (f : Ir.func) ->
      if
        String.equal f.Ir.fname "main"
        || Option.is_some (Attr.find "everest.entry" f.Ir.fattrs)
      then Some f.Ir.fname
      else None)
    m.Ir.funcs

let reachable (m : Ir.modul) ~(roots : string list) : SSet.t =
  let refs = references m in
  let rec go seen frontier =
    match frontier with
    | [] -> seen
    | name :: rest ->
        if SSet.mem name seen then go seen rest
        else
          let seen = SSet.add name seen in
          let next =
            List.filter_map
              (fun r ->
                if String.equal r.ref_from name then Some r.ref_to else None)
              refs
          in
          go seen (next @ rest)
  in
  go SSet.empty roots

(* Functions that are not roots and have no reference to them at all. *)
let unused (m : Ir.modul) : Ir.func list =
  match roots m with
  | [] -> []
  | rs ->
      let root_set = SSet.of_list rs in
      let referenced =
        List.fold_left
          (fun s r -> SSet.add r.ref_to s)
          SSet.empty (references m)
      in
      List.filter
        (fun (f : Ir.func) ->
          (not (SSet.mem f.Ir.fname root_set))
          && not (SSet.mem f.Ir.fname referenced))
        m.Ir.funcs

(* Functions that are referenced somewhere yet cannot be reached from any
   root (their only callers are themselves dead). *)
let unreachable (m : Ir.modul) : Ir.func list =
  match roots m with
  | [] -> []
  | rs ->
      let live = reachable m ~roots:rs in
      let referenced =
        List.fold_left
          (fun s r -> SSet.add r.ref_to s)
          SSet.empty (references m)
      in
      List.filter
        (fun (f : Ir.func) ->
          (not (SSet.mem f.Ir.fname live)) && SSet.mem f.Ir.fname referenced)
        m.Ir.funcs
