(* Byte-deterministic token codec for snapshots and journal records.

   Everything recovery persists is a single line of space-separated
   tokens: decimal integers, floats as the 16 hex digits of their
   IEEE-754 bit pattern (bit-exact for every double, including
   infinities, NaNs and signed zeros), booleans, and
   percent-encoded strings (so tenant or node names with spaces,
   newlines or '%' cannot break the framing).  Each persisted type is
   declared once, as a codec whose decoder is the exact inverse of its
   encoder and fails loudly with {!Decode} — a snapshot that does not
   parse is corrupt, never half-loaded.  Decoders accept only what the
   encoder writes (no '+' or leading zeros, no needless escapes), so
   whenever [decode c s] succeeds, [encode c (decode c s) = s].

   Hot paths encode one ~100-byte journal record per simulated event, so
   the writer is one growable [bytes] that tokens are written into in
   place, and the journal frames and writes a record from those same
   bytes; decoders likewise read tokens where they lie in the record. *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

type writer = { mutable buf : bytes; mutable len : int }
type reader = { s : string; mutable pos : int }
type 'a t = { enc : writer -> 'a -> unit; dec : reader -> 'a }

(* ---- writer --------------------------------------------------------------------- *)

let writer () = { buf = Bytes.create 256; len = 0 }

let reserve w n =
  if w.len + n > Bytes.length w.buf then begin
    let b = Bytes.create (max (w.len + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 b 0 w.len;
    w.buf <- b
  end

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let add_string w s =
  let n = String.length s in
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let hex_digits = "0123456789abcdef"

(* The 8 hex digits of the low 32 bits of [x] at [b.[off]]. *)
let put_hex32 b off x =
  let x = ref x in
  for i = off + 7 downto off do
    Bytes.unsafe_set b i (String.unsafe_get hex_digits (!x land 0xf));
    x := !x lsr 4
  done

let add_hex32 w x =
  reserve w 8;
  put_hex32 w.buf w.len x;
  w.len <- w.len + 8

(* Start a token of [n] bytes: room for it, and the space before it
   unless it is the first.  Every token is at least one byte, so a
   writer holding bytes holds a token to separate it from. *)
let token w n =
  reserve w (n + 1);
  if w.len > 0 then begin
    Bytes.unsafe_set w.buf w.len ' ';
    w.len <- w.len + 1
  end

let add_token w tok =
  let n = String.length tok in
  token w n;
  Bytes.unsafe_blit_string tok 0 w.buf w.len n;
  w.len <- w.len + n

let length w = w.len
let buffer w = w.buf
let contents w = Bytes.sub_string w.buf 0 w.len
let reset w = w.len <- 0

(* Whether the [len] bytes of [b] from [off] are [s]. *)
let holds b off len s =
  len = String.length s
  &&
  let i = ref 0 in
  while !i < len && Bytes.unsafe_get b (off + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i = len

let contents_equal w s = holds w.buf 0 w.len s

(* ---- reader --------------------------------------------------------------------- *)

let reader s = { s; pos = 0 }

(* Start of the next token, which ends at [r.pos] on return: the record's
   first byte or the byte after the one space following the previous
   token, up to the next space or the end, and never empty. *)
let next r =
  let n = String.length r.s in
  let start =
    if r.pos = 0 && n > 0 then 0
    else if r.pos < n then r.pos + 1  (* [r.pos] is the space *)
    else fail "unexpected end of record at byte %d" r.pos
  in
  let e = ref start in
  while !e < n && String.unsafe_get r.s !e <> ' ' do
    incr e
  done;
  if !e = start then fail "empty token at byte %d" start;
  r.pos <- !e;
  start

let token_at r start = String.sub r.s start (r.pos - start)

let at_end r = r.pos >= String.length r.s

(* Whether the token from [start] to [r.pos] is [tok]. *)
let token_is r start tok =
  holds (Bytes.unsafe_of_string r.s) start (r.pos - start) tok

let encode c x =
  let w = writer () in
  c.enc w x;
  contents w

let decode c s =
  let r = reader s in
  let x = c.dec r in
  if not (at_end r) then fail "trailing bytes at byte %d" r.pos;
  x

(* ---- primitives ----------------------------------------------------------------- *)

let add_int w i =
  (* digits of the non-positive [m], so [min_int] needs no special case *)
  let m = if i < 0 then i else -i in
  let digits = ref 1 and q = ref (m / 10) in
  while !q <> 0 do
    incr digits;
    q := !q / 10
  done;
  let n = !digits + if i < 0 then 1 else 0 in
  token w n;
  if i < 0 then Bytes.unsafe_set w.buf w.len '-';
  let q = ref m in
  for p = w.len + n - 1 downto w.len + n - !digits do
    Bytes.unsafe_set w.buf p (Char.unsafe_chr (48 - (!q mod 10)));
    q := !q / 10
  done;
  w.len <- w.len + n

let dec_int r =
  let start = next r in
  let s = r.s and e = r.pos in
  let neg = String.unsafe_get s start = '-' in
  let d0 = if neg then start + 1 else start in
  (* "0" is the only token with a leading zero; no "-0", no '+' *)
  if d0 = e || (String.unsafe_get s d0 = '0' && (neg || e - d0 > 1)) then
    fail "expected int, got %S" (token_at r start);
  (* accumulate negatively, so [min_int] fits *)
  let m = ref 0 and i = ref d0 in
  while !i < e do
    let d = Char.code (String.unsafe_get s !i) - 48 in
    if d < 0 || d > 9 || !m < (min_int + d) / 10 then
      fail "expected int, got %S" (token_at r start);
    m := (!m * 10) - d;
    incr i
  done;
  if neg then !m
  else if !m = min_int then fail "expected int, got %S" (token_at r start)
  else - !m

let int = { enc = add_int; dec = dec_int }

(* Floats are written as the 16 hex digits of their IEEE-754 bit pattern:
   bit-exact for every value including infinities, NaNs and signed zeros,
   and an order of magnitude cheaper to produce than printf float
   formatting — float tokens dominate snapshot bodies, so this is the
   codec's hot path. *)
let unhex c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> fail "bad hex digit %C" c

let float =
  { enc =
      (fun w f ->
        token w 16;
        let bits = Int64.bits_of_float f in
        (* two plain ints, so the digits come from unboxed arithmetic *)
        put_hex32 w.buf w.len (Int64.to_int (Int64.shift_right_logical bits 32));
        put_hex32 w.buf (w.len + 8) (Int64.to_int bits);
        w.len <- w.len + 16);
    dec =
      (fun r ->
        let start = next r in
        if r.pos - start <> 16 then
          fail "expected float bits, got %S" (token_at r start);
        let hi = ref 0 and lo = ref 0 in
        for i = 0 to 7 do
          hi := (!hi lsl 4) lor unhex (String.unsafe_get r.s (start + i));
          lo := (!lo lsl 4) lor unhex (String.unsafe_get r.s (start + 8 + i))
        done;
        Int64.float_of_bits
          (Int64.logor
             (Int64.shift_left (Int64.of_int !hi) 32)
             (Int64.of_int !lo))) }

let bool =
  { enc =
      (fun w b ->
        token w 1;
        Bytes.unsafe_set w.buf w.len (if b then 't' else 'f');
        w.len <- w.len + 1);
    dec =
      (fun r ->
        let start = next r in
        if token_is r start "t" then true
        else if token_is r start "f" then false
        else fail "expected bool, got %S" (token_at r start)) }

let needs_escape c =
  c <= ' ' || c > '~' || c = '%'

let string =
  { enc =
      (fun w s ->
        let n = String.length s in
        let escapes = ref 0 in
        for i = 0 to n - 1 do
          if needs_escape (String.unsafe_get s i) then incr escapes
        done;
        if n > 0 && !escapes = 0 then add_token w s
        else begin
          (* '%' guards the empty string and every byte outside the
             printable ASCII range *)
          token w (1 + n + (2 * !escapes));
          let b = w.buf and p = ref w.len in
          Bytes.unsafe_set b !p '%';
          for i = 0 to n - 1 do
            let c = String.unsafe_get s i in
            if needs_escape c then begin
              Bytes.unsafe_set b (!p + 1) '%';
              Bytes.unsafe_set b (!p + 2) hex_digits.[Char.code c lsr 4];
              Bytes.unsafe_set b (!p + 3) hex_digits.[Char.code c land 0xf];
              p := !p + 3
            end
            else begin
              Bytes.unsafe_set b (!p + 1) c;
              incr p
            end
          done;
          w.len <- !p + 1
        end);
    dec =
      (fun r ->
        let start = next r in
        let s = r.s and e = r.pos in
        if String.unsafe_get s start <> '%' then begin
          for i = start to e - 1 do
            if needs_escape (String.unsafe_get s i) then
              fail "unescaped byte in %S" (token_at r start)
          done;
          token_at r start
        end
        else begin
          (* the bytes that need it escaped, the others as they are, and
             at least one escape unless the string is empty *)
          let b = Bytes.create (e - start - 1) in
          let i = ref (start + 1) and k = ref 0 and escaped = ref false in
          while !i < e do
            let c = String.unsafe_get s !i in
            if c = '%' then begin
              if !i + 2 >= e then fail "truncated escape in %S" (token_at r start);
              let c = Char.chr ((unhex s.[!i + 1] * 16) + unhex s.[!i + 2]) in
              if not (needs_escape c) then
                fail "needless escape in %S" (token_at r start);
              Bytes.unsafe_set b !k c;
              escaped := true;
              i := !i + 3
            end
            else begin
              if needs_escape c then fail "unescaped byte in %S" (token_at r start);
              Bytes.unsafe_set b !k c;
              incr i
            end;
            incr k
          done;
          if !k > 0 && not !escaped then fail "needless '%%' in %S" (token_at r start);
          Bytes.sub_string b 0 !k
        end) }

let unit = { enc = (fun _ () -> ()); dec = (fun _ -> ()) }

(* A tag as its string token, escaped once when its codec is built;
   decoding compares it where it lies. *)
let tag_token tag = encode string tag

(* ---- combinators ---------------------------------------------------------------- *)

(* Every decoder sequences its parts with [let]: OCaml evaluates the
   components of a tuple expression (and the operands of an application)
   right to left, so [(a.dec r, b.dec r)] would read the fields in
   reverse. *)

let list item =
  (* a loop, not [List.iter (item.enc w)]: encoding builds no closure *)
  let rec enc_items w = function
    | [] -> ()
    | x :: rest -> item.enc w x; enc_items w rest
  in
  { enc = (fun w xs -> int.enc w (List.length xs); enc_items w xs);
    dec =
      (fun r ->
        let n = int.dec r in
        if n < 0 then fail "negative list length %d" n;
        List.init n (fun _ -> item.dec r)) }

let option c =
  { enc =
      (fun w -> function
        | Some x -> bool.enc w true; c.enc w x
        | None -> bool.enc w false);
    dec = (fun r -> if bool.dec r then Some (c.dec r) else None) }

let pair a b =
  { enc = (fun w (x, y) -> a.enc w x; b.enc w y);
    dec = (fun r -> let x = a.dec r in let y = b.dec r in (x, y)) }

let triple a b c =
  { enc = (fun w (x, y, z) -> a.enc w x; b.enc w y; c.enc w z);
    dec =
      (fun r ->
        let x = a.dec r in
        let y = b.dec r in
        let z = c.dec r in
        (x, y, z)) }

let tagged tag c =
  let tok = tag_token tag in
  { enc = (fun w x -> add_token w tok; c.enc w x);
    dec =
      (fun r ->
        let start = next r in
        if not (token_is r start tok) then
          fail "expected tag %S, got %S" tok (token_at r start);
        c.dec r) }

type 'a case =
  | Case : { tok : string; arg : 'b t; inj : 'b -> 'a; proj : 'a -> 'b option }
      -> 'a case

let case tag arg inj proj = Case { tok = tag_token tag; arg; inj; proj }

let variant cases =
  let rec enc_case w x = function
    | [] -> invalid_arg "Codec.variant: no case matches"
    | Case c :: rest -> (
        match c.proj x with
        | Some y -> add_token w c.tok; c.arg.enc w y
        | None -> enc_case w x rest)
  in
  let rec dec_case r start = function
    | [] -> fail "unknown tag %S" (token_at r start)
    | Case c :: rest ->
        if token_is r start c.tok then c.inj (c.arg.dec r)
        else dec_case r start rest
  in
  { enc = (fun w x -> enc_case w x cases);
    dec = (fun r -> let start = next r in dec_case r start cases) }

let enum cases =
  variant
    (List.map
       (fun (name, v) ->
         case name unit (fun () -> v) (fun x -> if x = v then Some () else None))
       cases)

(* Records: encoding calls the getters and allocates nothing. *)
type ('r, 'k) fields = { fenc : writer -> 'r -> unit; fdec : reader -> 'k }

let record make = { fenc = (fun _ _ -> ()); fdec = (fun _ -> make) }

let field c get fs =
  { fenc = (fun w x -> fs.fenc w x; c.enc w (get x));
    fdec = (fun r -> let k = fs.fdec r in let v = c.dec r in k v) }

let seal fs = { enc = fs.fenc; dec = fs.fdec }
