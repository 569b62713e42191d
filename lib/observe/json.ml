(* Minimal JSON values for the observe reports.

   Reports must round-trip (write a run's report, diff it against a later
   run) without pulling a JSON package into the dependency set, so this is
   the smallest useful value type plus a recursive-descent parser and a
   deterministic printer: object members keep insertion order, floats print
   as integers when exact, with %.17g otherwise (re-parsing gives the same
   float back, which Regress relies on for zero-diff self-comparison). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---- printing ------------------------------------------------------------------- *)

module Text = Everest_telemetry.Json_text

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  let pad d = if pretty then Buffer.add_string buf (String.make (2 * d) ' ') in
  let nl () = if pretty then Buffer.add_char buf '\n' in
  let rec go d = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (Text.number f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (Text.escape s);
        Buffer.add_char buf '"'
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr xs ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i x ->
            if i > 0 then (Buffer.add_char buf ','; nl ());
            pad (d + 1);
            go (d + 1) x)
          xs;
        nl ();
        pad d;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (k, x) ->
            if i > 0 then (Buffer.add_char buf ','; nl ());
            pad (d + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (Text.escape k);
            Buffer.add_string buf (if pretty then "\": " else "\":");
            go (d + 1) x)
          kvs;
        nl ();
        pad d;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ---- parsing -------------------------------------------------------------------- *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Parse_error (Printf.sprintf "%s at offset %d" m !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\n' | '\t' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then (pos := !pos + String.length lit; v)
    else fail ("expected " ^ lit)
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char b '"'; advance ()
            | '\\' -> Buffer.add_char b '\\'; advance ()
            | '/' -> Buffer.add_char b '/'; advance ()
            | 'n' -> Buffer.add_char b '\n'; advance ()
            | 't' -> Buffer.add_char b '\t'; advance ()
            | 'r' -> Buffer.add_char b '\r'; advance ()
            | 'b' | 'f' -> advance ()
            | 'u' ->
                advance ();
                for _ = 1 to 4 do
                  match peek () with
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
                  | _ -> fail "bad \\u escape"
                done
            | _ -> fail "bad escape");
            go ()
        | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while !pos < n && num_char (peek ()) do advance () done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_ () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Arr [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elements []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* ---- accessors ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_str = function Str s -> s | _ -> invalid_arg "Json.to_str"

let str_member k v = Option.map to_str (member k v)
