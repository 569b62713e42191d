(* The token encoders that [Everest_recovery.Codec] replaced, kept as a
   test oracle: a [Buffer] writer, [string_of_int] per int token, a fresh
   [Bytes] per float token and a [Printf] per escaped byte.  The codec
   writes tokens in place in its own buffer; its bytes are checked equal
   to these. *)

type writer = { buf : Buffer.t; mutable first : bool }
type 'a t = writer -> 'a -> unit

let sep w = if w.first then w.first <- false else Buffer.add_char w.buf ' '

let encode (c : 'a t) x =
  let w = { buf = Buffer.create 256; first = true } in
  c w x;
  Buffer.contents w.buf

let int w i =
  sep w;
  Buffer.add_string w.buf (string_of_int i)

let hex_digits = "0123456789abcdef"

let float w f =
  sep w;
  let bits = Int64.bits_of_float f in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) land 0xffffffff in
  let lo = Int64.to_int bits land 0xffffffff in
  let b = Bytes.create 16 in
  for i = 0 to 7 do
    Bytes.unsafe_set b i
      (String.unsafe_get hex_digits ((hi lsr ((7 - i) * 4)) land 0xf));
    Bytes.unsafe_set b (8 + i)
      (String.unsafe_get hex_digits ((lo lsr ((7 - i) * 4)) land 0xf))
  done;
  Buffer.add_bytes w.buf b

let bool w b =
  sep w;
  Buffer.add_char w.buf (if b then 't' else 'f')

let needs_escape c = c <= ' ' || c > '~' || c = '%'

let string w s =
  sep w;
  if String.for_all (fun c -> not (needs_escape c)) s && s <> "" then
    Buffer.add_string w.buf s
  else begin
    Buffer.add_char w.buf '%';
    String.iter
      (fun c ->
        if needs_escape c then
          Buffer.add_string w.buf (Printf.sprintf "%%%02x" (Char.code c))
        else Buffer.add_char w.buf c)
      s
  end

let list item w xs =
  int w (List.length xs);
  List.iter (item w) xs

let option c w = function
  | Some x -> bool w true; c w x
  | None -> bool w false

let pair a b w (x, y) = a w x; b w y
let triple a b c w (x, y, z) = a w x; b w y; c w z
