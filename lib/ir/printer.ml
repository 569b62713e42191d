(* Textual form of the IR (MLIR generic-op style).

       %3 = "arith.addf"(%1, %2) {k = v} : (f64, f64) -> (f64)

   Regions print as brace-enclosed blocks; blocks open with a caret header
   listing block arguments.  The printer is the inverse of Parser. *)

open Ir

let pp_value ppf (v : value) = Fmt.pf ppf "%%%d" v.vid

let pp_value_typed ppf (v : value) =
  Fmt.pf ppf "%%%d: %a" v.vid Types.pp v.vty

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
      Fmt.pf ppf " {%a}"
        Fmt.(list ~sep:(any ", ") (pair ~sep:(any " = ") string Attr.pp))
        attrs

let rec pp_op indent ppf (o : op) =
  let pad = String.make indent ' ' in
  Fmt.string ppf pad;
  (match o.results with
  | [] -> ()
  | rs -> Fmt.pf ppf "%a = " Fmt.(list ~sep:(any ", ") pp_value) rs);
  Fmt.pf ppf "\"%s\"(%a)%a : (%a) -> (%a)" o.name
    Fmt.(list ~sep:(any ", ") pp_value)
    o.operands pp_attrs o.attrs
    Fmt.(list ~sep:(any ", ") Types.pp)
    (List.map (fun v -> v.vty) o.operands)
    Fmt.(list ~sep:(any ", ") Types.pp)
    (List.map (fun v -> v.vty) o.results);
  List.iter (fun r -> pp_region indent ppf r) o.regions

and pp_region indent ppf (r : region) =
  Fmt.pf ppf " {@.";
  List.iteri
    (fun i b ->
      if i > 0 || b.bargs <> [] then
        Fmt.pf ppf "%s^(%a):@." (String.make indent ' ')
          Fmt.(list ~sep:(any ", ") pp_value_typed)
          b.bargs;
      List.iter (fun o -> Fmt.pf ppf "%a@." (pp_op (indent + 2)) o) b.body)
    r;
  Fmt.pf ppf "%s}" (String.make indent ' ')

let pp_func ppf (f : func) =
  Fmt.pf ppf "func @%s(%a) -> (%a)%a {@."
    f.fname
    Fmt.(list ~sep:(any ", ") pp_value_typed)
    f.fargs
    Fmt.(list ~sep:(any ", ") Types.pp)
    f.fret_types pp_attrs f.fattrs;
  List.iter (fun o -> Fmt.pf ppf "%a@." (pp_op 2) o) f.fbody;
  Fmt.pf ppf "}"

let pp_module ppf (m : modul) =
  Fmt.pf ppf "module @%s%a {@." m.mname pp_attrs m.mattrs;
  List.iter (fun f -> Fmt.pf ppf "%a@." pp_func f) m.funcs;
  Fmt.pf ppf "}@."

let module_to_string m = Fmt.str "%a" pp_module m
