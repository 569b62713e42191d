(* Versioned, content-hashed snapshot envelope.

   On-disk layout (all '\n'-terminated lines, then the raw body):

     EVEREST-SNAP v<version>
     <md5 hex of body>
     <byte length of body>
     <body...>

   Decoding validates magic, schema version, length and digest before a
   single byte of the body is interpreted, and reports each failure as
   a distinct typed error so callers can tell version skew from
   bit-rot from truncation. *)

let magic = "EVEREST-SNAP"

let version = 1

type error =
  | Corrupt of string         (* digest mismatch / bad framing *)
  | Version_skew of { found : int; expected : int }
  | Truncated of string

(* The envelope header alone — writers that already hold the body as its
   own string can emit header and body separately instead of building the
   concatenated envelope (bodies run to hundreds of KiB). *)
let header body =
  Printf.sprintf "%s v%d\n%s\n%d\n" magic version
    (Digest.to_hex (Digest.string body))
    (String.length body)

(** Kept for tests: the refusal tests re-seal tampered snapshot bodies. *)
let encode body = header body ^ body

exception Bad of error

let decode raw =
  let pos = ref 0 in
  let next_line what =
    match String.index_from_opt raw !pos '\n' with
    | None -> raise (Bad (Truncated (Printf.sprintf "missing %s line" what)))
    | Some i ->
        let line = String.sub raw !pos (i - !pos) in
        pos := i + 1;
        line
  in
  try
    let header = next_line "header" in
    (match String.split_on_char ' ' header with
    | [ m; v ] when String.equal m magic ->
        let found =
          if String.length v > 1 && v.[0] = 'v' then
            int_of_string_opt (String.sub v 1 (String.length v - 1))
          else None
        in
        (match found with
        | None -> raise (Bad (Corrupt (Printf.sprintf "bad version token %S" v)))
        | Some found when found <> version ->
            raise (Bad (Version_skew { found; expected = version }))
        | Some _ -> ())
    | _ -> raise (Bad (Corrupt (Printf.sprintf "bad magic %S" header))));
    let digest_hex = next_line "digest" in
    let len_s = next_line "length" in
    let len =
      match int_of_string_opt len_s with
      | Some len when len >= 0 -> len
      | _ -> raise (Bad (Corrupt (Printf.sprintf "bad length token %S" len_s)))
    in
    if String.length raw - !pos < len then
      raise
        (Bad
           (Truncated
              (Printf.sprintf "body has %d of %d bytes"
                 (String.length raw - !pos)
                 len)));
    let body = String.sub raw !pos len in
    let got = Digest.to_hex (Digest.string body) in
    if String.equal got digest_hex then Ok body
    else
      Error (Corrupt (Printf.sprintf "digest mismatch (%s != %s)" got digest_hex))
  with Bad e -> Error e
