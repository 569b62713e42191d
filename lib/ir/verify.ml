(* Structural verification of functions and modules.

   Checks SSA form (each value defined once, defined before use, region
   operands visible from enclosing scopes), per-op dialect verifiers, and
   call-graph integrity (callee symbols resolve, arities match). *)

type diag = { in_func : string; op_name : string; message : string; loc : Loc.t }

let pp_diag ppf d =
  match d.loc with
  | Loc.Unknown -> Fmt.pf ppf "[%s] %s: %s" d.in_func d.op_name d.message
  | l -> Fmt.pf ppf "[%s] %s: %s (%a)" d.in_func d.op_name d.message Loc.pp l

module IntSet = Set.Make (Int)

let verify_func ?(allow_unregistered = false) (f : Ir.func) : diag list =
  let diags = ref [] in
  let report (o : Ir.op) msg =
    diags :=
      { in_func = f.Ir.fname; op_name = o.name; message = msg; loc = o.loc }
      :: !diags
  in
  let rec check_ops scope ops =
    List.fold_left
      (fun scope (o : Ir.op) ->
        List.iter
          (fun (v : Ir.value) ->
            if not (IntSet.mem v.vid scope) then
              report o (Fmt.str "operand %%%d used before definition" v.vid))
          o.operands;
        (match Dialect.lookup o.name with
        | Some def -> (
            match def.verify o with Ok () -> () | Error m -> report o m)
        | None ->
            if not allow_unregistered then
              report o "operation not registered in any dialect");
        List.iter
          (fun region ->
            List.iter
              (fun (b : Ir.block) ->
                let scope' =
                  List.fold_left
                    (fun s (v : Ir.value) -> IntSet.add v.vid s)
                    scope b.bargs
                in
                ignore (check_ops scope' b.body))
              region)
          o.regions;
        List.fold_left
          (fun s (v : Ir.value) ->
            if IntSet.mem v.vid s then
              report o (Fmt.str "value %%%d redefined" v.vid);
            IntSet.add v.vid s)
          scope o.results)
      scope ops
  in
  let scope0 =
    List.fold_left (fun s (v : Ir.value) -> IntSet.add v.vid s) IntSet.empty
      f.Ir.fargs
  in
  ignore (check_ops scope0 f.Ir.fbody);
  List.rev !diags

let verify_module (m : Ir.modul) : diag list =
  let per_func = List.concat_map verify_func m.Ir.funcs in
  let calls = ref [] in
  List.iter
    (fun (f : Ir.func) ->
      Ir.iter_ops
        (fun o ->
          match
            ( o.Ir.name,
              Ir.attr_sym "callee" o,
              Ir.attr_sym "kernel" o )
          with
          | "func.call", Some callee, _ -> calls := (f.Ir.fname, o, callee) :: !calls
          | "hw.offload", _, Some callee -> calls := (f.Ir.fname, o, callee) :: !calls
          | _ -> ())
        f.Ir.fbody)
    m.Ir.funcs;
  let call_diags =
    List.filter_map
      (fun (fname, (o : Ir.op), callee) ->
        match Ir.find_func m callee with
        | None ->
            Some
              { in_func = fname; op_name = o.name;
                message = Fmt.str "callee @%s not found" callee; loc = o.loc }
        | Some g ->
            if
              String.equal o.name "func.call"
              && List.length o.operands <> List.length g.Ir.fargs
            then
              Some
                { in_func = fname; op_name = o.name;
                  message = Fmt.str "call to @%s: arity mismatch" callee;
                  loc = o.loc }
            else None)
      !calls
  in
  per_func @ call_diags

let check_module m =
  match verify_module m with
  | [] -> Ok ()
  | ds -> Error ds

let errors_to_string ds = String.concat "\n" (List.map (Fmt.str "%a" pp_diag) ds)
