(* Dialect registry.

   Each operation name is registered with traits and a verifier.  The
   verifier receives the op and reports a structural error message; the
   module-level verifier (Verify) walks the IR and applies these. *)

type trait =
  | Pure  (* no side effects: eligible for CSE/DCE *)
  | Commutative
  | Terminator

type op_def = {
  opname : string;
  traits : trait list;
  doc : string;
  verify : Ir.op -> (unit, string) result;
}

let registry : (string, op_def) Hashtbl.t = Hashtbl.create 128

let register ?(traits = []) ?(doc = "") opname verify =
  Hashtbl.replace registry opname { opname; traits; doc; verify }

let lookup name = Hashtbl.find_opt registry name

let has_trait name t =
  match lookup name with Some d -> List.mem t d.traits | None -> false

let is_pure (op : Ir.op) = has_trait op.name Pure

(* Verification helpers used by dialect definitions. *)

let ok = Ok ()
let err fmt = Fmt.kstr (fun s -> Error s) fmt

let expect_operands n (op : Ir.op) =
  if List.length op.operands = n then ok
  else err "%s: expected %d operands, got %d" op.name n (List.length op.operands)

let expect_results n (op : Ir.op) =
  if List.length op.results = n then ok
  else err "%s: expected %d results, got %d" op.name n (List.length op.results)

let expect_regions n (op : Ir.op) =
  if List.length op.regions = n then ok
  else err "%s: expected %d regions, got %d" op.name n (List.length op.regions)

let expect_attr key (op : Ir.op) =
  if Ir.has_attr key op then ok else err "%s: missing attribute %S" op.name key

let all checks op =
  List.fold_left
    (fun acc c -> match acc with Ok () -> c op | Error _ as e -> e)
    ok checks

let same_type_operands (op : Ir.op) =
  match op.operands with
  | [] -> ok
  | v :: rest ->
      if List.for_all (fun w -> Types.compatible v.Ir.vty w.Ir.vty) rest then ok
      else err "%s: operands must share one type" op.name

let operand_type n (op : Ir.op) = (List.nth op.operands n).Ir.vty

let no_verify (_ : Ir.op) = ok
