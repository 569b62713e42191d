(* Export scan: which exports of the libraries under lib/ do the programs
   never reach, and which of their optional parameters do they never pass?

   Run from the workspace root, it prints one sorted line per export that
   nothing reaches, [unreferenced <library> <Module>.<name>], or that only
   the tests reach, [test-only <library> <Module>.<name>]; one per
   optional parameter of an .mli [val] that nothing passes,
   [unpassed <library> <Module>.<name> ?<label>], or that only the tests
   pass, [test-only-option ...]; then the totals.  test/exports/dune
   diffs that output against exports.expected in `dune runtest`, so a new
   dead export or option fails the tests; re-record with
   `dune runtest test/exports --auto-promote`.

   - An export is a top-level [val] of a lib/**/*.mli, or a top-level
     [let] of a lib/ module that has no .mli.
   - The programs are the .ml files under bin/, bench/, everest_bench/
     and examples/; test/ holds the tests.  Files are read with
     compiler-libs' [Parse], which lexes with the compiler's own [Lexer],
     so comments and strings never count.
   - Reach: every top-level [let] of a lib/ .ml, exported or private, is
     a binding, and each reference in the file belongs to the binding
     that contains it.  A binding is reached when a program refers to it
     or a reached binding does, to a fixpoint.  The file's other
     top-level code ([let () =], nested modules, functor bodies,
     [include]) is reached whenever anything in the file is.  Test reach
     is the same fixpoint started from test/.
   - A reference is [M.name]: library-qualified ([Everest_ir.Ir.name]),
     through a module alias ([module X = ...], [let module]), or with
     [M] the last module of a dotted path ([Sdk.Runtime.Orchestrator.serve]).
     A bare [name] refers to [M.name] in [M]'s own .ml and in every
     module the file opens ([open], [let open], [M.( ... )]), unless a
     function parameter, [let ... in], [match]/[function]/[try] case or
     [for] index binds it locally; in [let x = x () in] the right-hand
     side still refers to the outer [x], unless the [let] is [rec].
     Lets inside nested modules do not bind locally, so an unclear scope
     counts a reference and the scan never reports a used export.  A
     module passed whole (included, applied, packed) counts as a
     reference to all of its exports.
   - An option is passed when an application whose head is a reference
     labels it, [~l] or [?l], from a program or a reached binding (from
     a test or a test-reached binding for the tests).  A reference
     anywhere else (passed as an argument, bound to a name) counts as
     passing all of the export's options, so the scan never reports an
     option passed through it.
   - A module name two libraries define ([Rng], [Dataflow]) resolves to
     the referring file's own library and the library wrappers it opens,
     else to the libraries its dune file lists, else to both; every
     candidate left gets the reference, so the scan never reports a used
     export. *)

open Parsetree

let programs = [ "bin"; "bench"; "everest_bench"; "examples" ]
let tests = [ "test" ]

let rec walk dir acc =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if f.[0] = '.' || f.[0] = '_' then acc
      else if Sys.is_directory p then walk p acc
      else p :: acc)
    acc (Sys.readdir dir)

let read p = In_channel.with_open_bin p In_channel.input_all
let module_name p = String.capitalize_ascii Filename.(remove_extension (basename p))

(* Dune files: just enough s-expression to read library names and
   [libraries] fields. *)

type sexp = Atom of string | List of sexp list

let sexps s =
  let n = String.length s in
  let rec skip i =
    if i >= n then i
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip (i + 1)
      | ';' -> (
          match String.index_from_opt s i '\n' with Some j -> skip j | None -> n)
      | _ -> i
  in
  let rec atom_end i =
    if i < n && not (String.contains " \t\n\r();\"" s.[i]) then atom_end (i + 1)
    else i
  in
  let rec string_end i =
    match s.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  let rec items i acc =
    let i = skip i in
    if i >= n || s.[i] = ')' then (List.rev acc, i + 1)
    else if s.[i] = '(' then
      let l, j = items (i + 1) [] in
      items j (List l :: acc)
    else if s.[i] = '"' then
      let j = string_end (i + 1) in
      items j (Atom (String.sub s (i + 1) (j - i - 2)) :: acc)
    else
      let j = atom_end i in
      items j (Atom (String.sub s i (j - i)) :: acc)
  in
  fst (items 0 [])

(* The library a directory defines, and every library its stanzas list. *)
type dir = { own : string option; deps : string list }

let read_dune dir =
  let p = Filename.concat dir "dune" in
  if not (Sys.file_exists p) then { own = None; deps = [] }
  else
    List.fold_left
      (fun d stanza ->
        match stanza with
        | List (Atom kind :: fields) ->
            List.fold_left
              (fun d -> function
                | List [ Atom "name"; Atom n ] when kind = "library" ->
                    { d with own = Some n }
                | List (Atom "libraries" :: libs) ->
                    let atom = function Atom l -> Some l | List _ -> None in
                    { d with deps = List.filter_map atom libs @ d.deps }
                | _ -> d)
              d fields
        | _ -> d)
      { own = None; deps = [] }
      (sexps (read p))

let parse f path =
  let lexbuf = Lexing.from_string (read path) in
  Location.init lexbuf path;
  try f lexbuf
  with exn ->
    Location.report_exception Format.err_formatter exn;
    exit 2

(* What a .ml file refers to.  The owner of a reference is the top-level
   binding containing it: each name its [let] pattern binds, or [""] for
   the file's other top-level code. *)
type uses = {
  mutable opens : Longident.t list;
  mutable aliases : (string * Longident.t) list;
  mutable idents : (string list * Longident.t * string list option) list;
      (* [Some labels]: the head of an application passing [labels] *)
  mutable whole : (string list * Longident.t) list;
}

module S = Set.Make (String)

let pattern_vars p =
  let vars = ref [] in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_var v | Ppat_alias (_, v) -> vars := v.txt :: !vars
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !vars

let bind env p = List.fold_left (fun env v -> S.add v env) env (pattern_vars p)

let top_level_lets str =
  List.concat_map
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) -> List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs
      | _ -> [])
    str

let uses_of str =
  let u = { opens = []; aliases = []; idents = []; whole = [] } in
  let owner = ref [ "" ] in
  let ident me =
    match me.pmod_desc with
    | Pmod_ident l | Pmod_constraint ({ pmod_desc = Pmod_ident l; _ }, _) -> Some l.txt
    | _ -> None
  in
  let default = Ast_iterator.default_iterator in
  let alias it name me =
    match (name, ident me) with
    | Some x, Some l -> u.aliases <- (x, l) :: u.aliases
    | _ -> it.Ast_iterator.module_expr it me
  in
  let use env txt passed =
    match txt with
    | Longident.Lident n when S.mem n env -> ()
    | _ -> u.idents <- (!owner, txt, passed) :: u.idents
  in
  let open_declaration it od =
    match ident od.popen_expr with
    | Some l -> u.opens <- l :: u.opens
    | None -> default.open_declaration it od
  in
  let module_binding it mb = alias it mb.pmb_name.txt mb.pmb_expr in
  let module_expr it me =
    match me.pmod_desc with
    | Pmod_ident l -> u.whole <- (!owner, l.txt) :: u.whole
    | _ -> default.module_expr it me
  in
  (* [env]: the names bound locally around the expression. *)
  let rec iterator env =
    { default with expr = (fun _ e -> expr env e); open_declaration; module_binding; module_expr }
  and expr env e =
    let it = iterator env in
    let case env c =
      let env = bind env c.pc_lhs in
      Option.iter (expr env) c.pc_guard;
      expr env c.pc_rhs
    in
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> use env txt None
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let label = function
          | Asttypes.Labelled l, _ | Asttypes.Optional l, _ -> Some l
          | Asttypes.Nolabel, _ -> None
        in
        use env txt (Some (List.filter_map label args));
        List.iter (fun (_, arg) -> expr env arg) args
    | Pexp_let (flag, vbs, body) ->
        let inner = List.fold_left (fun env vb -> bind env vb.pvb_pat) env vbs in
        let rhs = if flag = Asttypes.Recursive then inner else env in
        List.iter (fun vb -> expr rhs vb.pvb_expr) vbs;
        expr inner body
    | Pexp_fun (_, init, p, body) ->
        Option.iter (expr env) init;
        expr (bind env p) body
    | Pexp_function cases -> List.iter (case env) cases
    | Pexp_match (e, cases) | Pexp_try (e, cases) ->
        expr env e;
        List.iter (case env) cases
    | Pexp_for (p, lo, hi, _, body) ->
        expr env lo;
        expr env hi;
        expr (bind env p) body
    | Pexp_letop { let_; ands; body } ->
        let ops = let_ :: ands in
        List.iter (fun op -> expr env op.pbop_exp) ops;
        expr (List.fold_left (fun env op -> bind env op.pbop_pat) env ops) body
    | Pexp_letmodule (x, me, body) ->
        alias it x.txt me;
        expr env body
    | _ -> default.expr it e
  in
  let it = iterator S.empty in
  List.iter
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              owner := (match pattern_vars vb.pvb_pat with [] -> [ "" ] | vs -> vs);
              it.value_binding it vb)
            vbs;
          owner := [ "" ]
      | _ -> it.structure_item it si)
    str;
  u

(* The optional parameters of a [val]'s type, in order. *)
let rec options t =
  match t.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: options rest
  | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> options rest
  | _ -> []

let rec components = function
  | Longident.Lident s -> Some [ s ]
  | Ldot (l, s) -> Option.map (fun c -> c @ [ s ]) (components l)
  | Lapply _ -> None

(* A path whose head is a file-local alias stands for every path that
   alias is bound to in the file. *)
let rec expand aliases depth cs =
  match cs with
  | c :: rest when depth < 8 -> (
      let target (x, l) = if x = c then components l else None in
      match List.filter_map target aliases with
      | [] -> [ cs ]
      | ts -> List.concat_map (fun t -> expand aliases (depth + 1) (t @ rest)) ts)
  | _ -> [ cs ]

type source = Program | Test | Binding of (string * string * string)

let () =
  (* (library, module, name) of every export *)
  let exports : (string * string * string, unit) Hashtbl.t = Hashtbl.create 2048 in
  (* every export and top-level binding of a lib/ module, and [(lib, m, "")]
     for the rest of its file's top-level code *)
  let nodes : (string * string * string, unit) Hashtbl.t = Hashtbl.create 4096 in
  (* (library, module, name) -> each optional parameter with (passed by a
     program, by a test) *)
  let options_of :
      (string * string * string, (string * bool ref * bool ref) list) Hashtbl.t =
    Hashtbl.create 256
  in
  let defined_by : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let wrappers : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let dirs : (string, dir) Hashtbl.t = Hashtbl.create 64 in
  let dir_of p =
    let d = Filename.dirname p in
    match Hashtbl.find_opt dirs d with
    | Some r -> r
    | None ->
        let r = read_dune d in
        Hashtbl.add dirs d r;
        r
  in
  let roots = List.filter Sys.file_exists ("lib" :: programs @ tests) in
  let files = List.concat_map (fun r -> List.sort compare (walk r [])) roots in
  let with_ext e = List.filter (fun p -> Filename.extension p = e) files in
  let lib_of p = if String.starts_with ~prefix:"lib/" p then (dir_of p).own else None in
  let from_lib = List.filter (fun p -> lib_of p <> None) in
  let add lib m ns =
    Hashtbl.replace nodes (lib, m, "") ();
    List.iter (fun n -> Hashtbl.replace nodes (lib, m, n) ()) ns
  in
  List.iter
    (fun p ->
      let lib = Option.get (lib_of p) and m = module_name p in
      Hashtbl.replace wrappers (String.capitalize_ascii lib) lib;
      if not (List.mem lib (Hashtbl.find_all defined_by m)) then
        Hashtbl.add defined_by m lib;
      let lets = top_level_lets (parse Parse.implementation p) in
      let mli = p ^ "i" in
      let exported =
        if Sys.file_exists mli then
          List.filter_map
            (fun si ->
              match si.psig_desc with
              | Psig_value vd ->
                  let n = vd.pval_name.txt in
                  let opts = options vd.pval_type in
                  if opts <> [] then
                    Hashtbl.replace options_of (lib, m, n)
                      (List.map (fun o -> (o, ref false, ref false)) opts);
                  Some n
              | _ -> None)
            (parse Parse.interface mli)
        else lets
      in
      List.iter (fun n -> Hashtbl.replace exports (lib, m, n) ()) exported;
      add lib m (exported @ lets))
    (from_lib (with_ext ".ml"));
  (* Every reference: where it is, the node it names, the labels it passes. *)
  let refs = ref [] in
  List.iter
    (fun p ->
      let d = dir_of p and u = uses_of (parse Parse.implementation p) in
      let own = Option.map (fun lib -> (lib, module_name p)) (lib_of p) in
      let from owners =
        match own with
        | Some (lib, m) -> List.map (fun n -> Binding (lib, m, n)) owners
        | None when List.mem (List.hd (String.split_on_char '/' p)) tests -> [ Test ]
        | None -> [ Program ]
      in
      let note owners passed node =
        if Hashtbl.mem nodes node then
          List.iter
            (fun src -> if src <> Binding node then refs := (src, node, passed) :: !refs)
            (from owners)
      in
      let paths l = Option.fold ~none:[] ~some:(expand u.aliases 0) (components l) in
      let opened_libs =
        List.concat_map
          (fun l ->
            List.filter_map
              (function [ w ] -> Hashtbl.find_opt wrappers w | _ -> None)
              (paths l))
          u.opens
      in
      let candidates m =
        let defs = Hashtbl.find_all defined_by m in
        let near =
          List.filter (fun l -> d.own = Some l || List.mem l opened_libs) defs
        in
        let listed = List.filter (fun l -> List.mem l d.deps) defs in
        if near <> [] then near else if listed <> [] then listed else defs
      in
      let modules cs =
        let m = List.nth cs (List.length cs - 1) in
        let libs =
          match cs with
          | w :: _ :: _ -> (
              match Hashtbl.find_opt wrappers w with
              | Some lib when List.mem lib (Hashtbl.find_all defined_by m) ->
                  [ lib ]
              | _ -> candidates m)
          | _ -> candidates m
        in
        List.map (fun lib -> (lib, m)) libs
      in
      let resolve l = List.concat_map modules (paths l) in
      let opened = List.concat_map resolve u.opens in
      List.iter
        (fun (owners, l) ->
          List.iter
            (fun (lib, m) ->
              Hashtbl.iter
                (fun (lib', m', n) () ->
                  if lib = lib' && m = m' then note owners None (lib, m, n))
                exports)
            (resolve l))
        u.whole;
      List.iter
        (fun (owners, l, passed) ->
          let note (lib, m) n = note owners passed (lib, m, n) in
          match l with
          | Longident.Lident n ->
              Option.iter (fun own -> note own n) own;
              List.iter (fun lm -> note lm n) opened
          | Ldot (q, n) -> List.iter (fun lm -> note lm n) (resolve q)
          | Lapply _ -> ())
        u.idents)
    (with_ext ".ml");
  (* Reach from the programs and from the tests, to a fixpoint; reaching
     a binding reaches the rest of its file's top-level code. *)
  let edges = Hashtbl.create 8192 in
  List.iter
    (function Binding src, node, _ -> Hashtbl.add edges src node | _ -> ())
    !refs;
  let reach root =
    let seen = Hashtbl.create 4096 in
    let rec visit ((lib, m, _) as node) =
      if not (Hashtbl.mem seen node) then (
        Hashtbl.add seen node ();
        visit (lib, m, "");
        List.iter visit (Hashtbl.find_all edges node))
    in
    List.iter (fun (src, node, _) -> if src = root then visit node) !refs;
    seen
  in
  let by_program = reach Program and by_test = reach Test in
  List.iter
    (fun (src, node, passed) ->
      let program, test =
        match src with
        | Program -> (true, false)
        | Test -> (false, true)
        | Binding b -> (Hashtbl.mem by_program b, Hashtbl.mem by_test b)
      in
      List.iter
        (fun (o, by_p, by_t) ->
          match passed with
          | Some labels when not (List.mem o labels) -> ()
          | _ ->
              if program then by_p := true;
              if test then by_t := true)
        (Option.value ~default:[] (Hashtbl.find_opt options_of node)))
    !refs;
  let lines =
    Hashtbl.fold
      (fun ((lib, m, n) as node) () lines ->
        if Hashtbl.mem by_program node then lines
        else
          let kind = if Hashtbl.mem by_test node then "test-only" else "unreferenced" in
          Printf.sprintf "%s %s %s.%s" kind lib m n :: lines)
      exports []
  in
  let lines =
    Hashtbl.fold
      (fun (lib, m, n) opts lines ->
        List.fold_left
          (fun lines (o, by_p, by_t) ->
            if !by_p then lines
            else
              let kind = if !by_t then "test-only-option" else "unpassed" in
              Printf.sprintf "%s %s %s.%s ?%s" kind lib m n o :: lines)
          lines opts)
      options_of lines
  in
  let count kind =
    List.length (List.filter (String.starts_with ~prefix:(kind ^ " ")) lines)
  in
  List.iter print_endline (List.sort compare lines);
  Printf.printf "exports %d\nunreferenced %d\ntest-only %d\n" (Hashtbl.length exports)
    (count "unreferenced") (count "test-only");
  Printf.printf "options %d\nunpassed %d\ntest-only-option %d\n"
    (Hashtbl.fold (fun _ opts n -> n + List.length opts) options_of 0)
    (count "unpassed") (count "test-only-option")
