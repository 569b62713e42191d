(* Recursive-descent parser for the textual IR emitted by Printer.

   The concrete syntax is the MLIR generic-op form; Parser and Printer are
   exact inverses, which the test suite checks by round-tripping. *)

exception Parse_error of string

type state = { src : string; mutable pos : int; mutable env : (int * Ir.value) list }

let error st fmt =
  let around =
    let a = max 0 (st.pos - 20) and b = min (String.length st.src) (st.pos + 20) in
    String.sub st.src a (b - a)
  in
  Fmt.kstr (fun s -> raise (Parse_error (s ^ " near: " ^ around))) fmt

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]
let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  if not (eof st) then
    match peek st with
    | ' ' | '\t' | '\n' | '\r' -> advance st; skip_ws st
    | '/' when st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = '/' ->
        while (not (eof st)) && peek st <> '\n' do advance st done;
        skip_ws st
    | _ -> ()

let expect st c =
  skip_ws st;
  if peek st = c then advance st else error st "expected %C" c

let try_char st c =
  skip_ws st;
  if peek st = c then (advance st; true) else false

let expect_str st s =
  skip_ws st;
  let n = String.length s in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = s then
    st.pos <- st.pos + n
  else error st "expected %S" s

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let ident st =
  skip_ws st;
  let start = st.pos in
  while (not (eof st)) && is_ident_char (peek st) do advance st done;
  if st.pos = start then error st "expected identifier";
  String.sub st.src start (st.pos - start)

let int_lit st =
  skip_ws st;
  let start = st.pos in
  if peek st = '-' then advance st;
  while (not (eof st)) && peek st >= '0' && peek st <= '9' do advance st done;
  if st.pos = start then error st "expected integer";
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> i
  | None -> error st "bad integer %S" s

let string_lit st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if eof st then error st "unterminated string"
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
          advance st;
          (match peek st with
          | 'n' -> Buffer.add_char b '\n'
          | c -> Buffer.add_char b c);
          advance st; go ()
      | c -> Buffer.add_char b c; advance st; go ()
  in
  go ();
  Buffer.contents b

(* Numbers: integers or floats (including the %h hex-float form). *)
let number st =
  skip_ws st;
  let start = st.pos in
  let prev () = if st.pos > start then st.src.[st.pos - 1] else ' ' in
  if peek st = '-' then advance st;
  let cont () =
    match peek st with
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' | 'x' | 'X' | '.' -> true
    | 'p' | 'P' -> true
    | '+' | '-' -> ( match prev () with 'p' | 'P' | 'e' | 'E' -> true | _ -> false)
    | _ -> false
  in
  while (not (eof st)) && cont () do advance st done;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Attr.Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Attr.Float f
      | None -> error st "bad number %S" s)

let scalar_of_name = function
  | "i1" -> Some Types.I1 | "i8" -> Some Types.I8 | "i16" -> Some Types.I16
  | "i32" -> Some Types.I32 | "i64" -> Some Types.I64
  | "f32" -> Some Types.F32 | "f64" -> Some Types.F64
  | "index" -> Some Types.Index | _ -> None

(* Shape strings look like "4x?x16xf64": dims separated by 'x', ending in the
   element type name. *)
let parse_shape_body st =
  let dims = ref [] in
  let rec go () =
    skip_ws st;
    if peek st = '?' then begin
      advance st;
      dims := Types.Dyn :: !dims;
      expect st 'x'; go ()
    end
    else if peek st >= '0' && peek st <= '9' then begin
      let d = int_lit st in
      dims := Types.Static d :: !dims;
      expect st 'x'; go ()
    end
    else
      let name = ident st in
      match scalar_of_name name with
      | Some s -> (List.rev !dims, s)
      | None -> error st "bad element type %S" name
  in
  go ()

let rec parse_type st : Types.t =
  skip_ws st;
  if peek st = '(' then begin
    advance st;
    let args = parse_type_list st in
    expect st ')';
    expect_str st "->";
    expect st '(';
    let rets = parse_type_list st in
    expect st ')';
    Types.func args rets
  end
  else if peek st = '!' then begin
    advance st;
    Types.opaque (ident st)
  end
  else
    let name = ident st in
    match name with
    | "token" -> Types.Token
    | "tensor" ->
        expect st '<';
        let shape, elt = parse_shape_body st in
        expect st '>';
        Types.Tensor { elt; shape }
    | "memref" ->
        expect st '<';
        let shape, elt = parse_shape_body st in
        expect st ',';
        let space = parse_mem_space st in
        expect st '>';
        Types.Memref { elt; shape; space }
    | "stream" ->
        expect st '<';
        let t = parse_type st in
        expect st '>';
        Types.Stream t
    | n -> (
        match scalar_of_name n with
        | Some s -> Types.Scalar s
        | None -> error st "unknown type %S" n)

and parse_mem_space st =
  let name = ident st in
  match name with
  | "host" -> Types.Host
  | "bram" -> Types.Bram
  | "hbm" -> Types.Hbm
  | "device" ->
      expect st '<';
      let d = int_lit st in
      expect st '>'; Types.Device d
  | "remote" ->
      expect st '<';
      let n = ident st in
      expect st '>'; Types.Remote n
  | s -> error st "unknown memory space %S" s

and parse_type_list st =
  skip_ws st;
  if peek st = ')' then []
  else
    let rec go acc =
      let t = parse_type st in
      if try_char st ',' then go (t :: acc) else List.rev (t :: acc)
    in
    go []

let rec parse_attr st : Attr.t =
  skip_ws st;
  match peek st with
  | '"' -> Attr.Str (string_lit st)
  | '@' -> advance st; Attr.Sym (ident st)
  | '[' ->
      advance st;
      let rec go acc =
        skip_ws st;
        if peek st = ']' then (advance st; List.rev acc)
        else
          let a = parse_attr st in
          if try_char st ',' then go (a :: acc)
          else (expect st ']'; List.rev (a :: acc))
      in
      Attr.List (go [])
  | '{' -> Attr.Dict (parse_attr_dict st)
  | c when c = '-' || (c >= '0' && c <= '9') -> number st
  | _ -> (
      (* bare word: bool, unit, or a type *)
      let save = st.pos in
      let name = ident st in
      match name with
      | "true" -> Attr.Bool true
      | "false" -> Attr.Bool false
      | "unit" -> Attr.Unit
      | _ ->
          st.pos <- save;
          Attr.Type (parse_type st))

and parse_attr_dict st =
  expect st '{';
  let rec go acc =
    skip_ws st;
    if peek st = '}' then (advance st; List.rev acc)
    else
      let key = ident st in
      expect st '=';
      let v = parse_attr st in
      if try_char st ',' then go ((key, v) :: acc)
      else (expect st '}'; List.rev ((key, v) :: acc))
  in
  go []

let parse_value_ref st =
  expect st '%';
  let id = int_lit st in
  id

let parse_value_refs st stop =
  skip_ws st;
  if peek st = stop then []
  else
    let rec go acc =
      let v = parse_value_ref st in
      if try_char st ',' then go (v :: acc) else List.rev (v :: acc)
    in
    go []

let lookup st id =
  match List.assoc_opt id st.env with
  | Some v -> v
  | None -> error st "use of undefined value %%%d" id

let define st id ty =
  let v = { Ir.vid = id; vty = ty } in
  st.env <- (id, v) :: st.env;
  v

(* typed value list "%0: f64, %1: i32" *)
let parse_typed_args st stop =
  skip_ws st;
  if peek st = stop then []
  else
    let rec go acc =
      let id = parse_value_ref st in
      expect st ':';
      let ty = parse_type st in
      let v = define st id ty in
      if try_char st ',' then go (v :: acc) else List.rev (v :: acc)
    in
    go []

let rec parse_op st : Ir.op =
  skip_ws st;
  (* results (optional) then '"' *)
  let result_ids =
    if peek st = '%' then begin
      let ids = parse_value_refs st '=' in
      expect st '=';
      ids
    end
    else []
  in
  skip_ws st;
  let name = string_lit st in
  expect st '(';
  let operand_ids = parse_value_refs st ')' in
  expect st ')';
  skip_ws st;
  let attrs = if peek st = '{' then parse_attr_dict st else [] in
  expect st ':';
  expect st '(';
  let _arg_tys = parse_type_list st in
  expect st ')';
  expect_str st "->";
  expect st '(';
  let ret_tys = parse_type_list st in
  expect st ')';
  if List.length ret_tys <> List.length result_ids then
    error st "%s: result arity mismatch" name;
  let operands = List.map (lookup st) operand_ids in
  let results = List.map2 (fun id ty -> define st id ty) result_ids ret_tys in
  let regions = parse_regions st in
  { Ir.name; operands; results; attrs; regions; loc = Loc.unknown }

and parse_regions st =
  skip_ws st;
  if peek st = '{' then begin
    let r = parse_region st in
    r :: parse_regions st
  end
  else []

and parse_region st : Ir.region =
  expect st '{';
  let parse_block () =
    skip_ws st;
    let args =
      if peek st = '^' then begin
        advance st;
        expect st '(';
        let args = parse_typed_args st ')' in
        expect st ')';
        expect st ':';
        args
      end
      else []
    in
    let rec ops acc =
      skip_ws st;
      if peek st = '}' || peek st = '^' then List.rev acc
      else ops (parse_op st :: acc)
    in
    { Ir.bargs = args; body = ops [] }
  in
  let rec blocks acc =
    skip_ws st;
    if peek st = '}' then (advance st; List.rev acc)
    else blocks (parse_block () :: acc)
  in
  blocks []

(* Attr dict vs region/body brace: a non-empty attr dict starts with
   "ident ="; anything else (op, '%', '}', "func") is a body.  The printer
   never emits empty attr dicts, so '{' '}' is always an empty body. *)
let looks_like_attr_dict st =
  skip_ws st;
  if peek st <> '{' then false
  else begin
    let save = st.pos in
    advance st;
    skip_ws st;
    let is_dict =
      is_ident_char (peek st)
      &&
      try
        ignore (ident st);
        skip_ws st;
        peek st = '='
      with Parse_error _ -> false
    in
    st.pos <- save;
    is_dict
  end

let parse_func st : Ir.func =
  expect_str st "func";
  expect st '@';
  let name = ident st in
  expect st '(';
  let args = parse_typed_args st ')' in
  expect st ')';
  expect_str st "->";
  expect st '(';
  let rets = parse_type_list st in
  expect st ')';
  let attrs = if looks_like_attr_dict st then parse_attr_dict st else [] in
  expect st '{';
  let rec ops acc =
    skip_ws st;
    if peek st = '}' then (advance st; List.rev acc)
    else ops (parse_op st :: acc)
  in
  let body = ops [] in
  { Ir.fname = name; fargs = args; fret_types = rets; fbody = body; fattrs = attrs }

let parse_module_st st : Ir.modul =
  expect_str st "module";
  expect st '@';
  let name = ident st in
  let attrs = if looks_like_attr_dict st then parse_attr_dict st else [] in
  expect st '{';
  let rec funcs acc =
    skip_ws st;
    if peek st = '}' then (advance st; List.rev acc)
    else begin
      st.env <- [];
      funcs (parse_func st :: acc)
    end
  in
  let fs = funcs [] in
  { Ir.mname = name; funcs = fs; mattrs = attrs }

let parse_module ctx src =
  let st = { src; pos = 0; env = [] } in
  let m = parse_module_st st in
  List.iter (fun f -> Ir.bump_ctx ctx (f.Ir.fbody)) m.funcs;
  List.iter
    (fun (f : Ir.func) ->
      let dummy =
        Ir.{ name = "args"; operands = f.fargs; results = []; attrs = [];
             regions = []; loc = Loc.unknown }
      in
      Ir.bump_ctx ctx [ dummy ])
    m.funcs;
  m
