(* Byte-deterministic token codec for snapshots and journal records.

   Everything recovery persists is a single line of space-separated
   tokens: decimal integers, floats as the 16 hex digits of their
   IEEE-754 bit pattern (bit-exact for every double, including
   infinities, NaNs and signed zeros), booleans, and
   percent-encoded strings (so tenant or node names with spaces,
   newlines or '%' cannot break the framing).  Each persisted type is
   declared once, as a codec whose decoder is the exact inverse of its
   encoder and fails loudly with {!Decode} — a snapshot that does not
   parse is corrupt, never half-loaded. *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode s)) fmt

type writer = { buf : Buffer.t; mutable first : bool }
type reader = { s : string; mutable pos : int }
type 'a t = { enc : writer -> 'a -> unit; dec : reader -> 'a }

(* ---- writer --------------------------------------------------------------------- *)

let writer () = { buf = Buffer.create 256; first = true }

let sep w =
  if w.first then w.first <- false else Buffer.add_char w.buf ' '

let contents w = Buffer.contents w.buf

(* Reuse one writer across many small encodes (hot paths encode one
   ~100-byte record per simulated event — a fresh Buffer each time is
   pure allocator churn). *)
let reset w =
  Buffer.clear w.buf;
  w.first <- true

(* ---- reader --------------------------------------------------------------------- *)

let reader s = { s; pos = 0 }

let token r =
  let n = String.length r.s in
  if r.pos >= n then fail "unexpected end of record at byte %d" r.pos;
  let start = r.pos in
  while r.pos < n && r.s.[r.pos] <> ' ' do
    r.pos <- r.pos + 1
  done;
  let t = String.sub r.s start (r.pos - start) in
  if r.pos < n then r.pos <- r.pos + 1;  (* skip the separator *)
  t

let at_end r = r.pos >= String.length r.s

(* Expect a literal tag token — the schema self-check inside a record. *)
let expect r tag =
  let t = token r in
  if not (String.equal t tag) then fail "expected tag %S, got %S" tag t

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

let int =
  { enc = (fun w i -> sep w; Buffer.add_string w.buf (string_of_int i));
    dec =
      (fun r ->
        let t = token r in
        match int_of_string_opt t with
        | Some i -> i
        | None -> fail "expected int, got %S" t) }

(* Floats are written as the 16 hex digits of their IEEE-754 bit pattern:
   bit-exact for every value including infinities, NaNs and signed zeros,
   and an order of magnitude cheaper to produce than printf float
   formatting — float tokens dominate snapshot bodies, so this is the
   codec's hot path. *)
let hex_digits = "0123456789abcdef"

let unhex c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> fail "bad hex digit %C" c

let float =
  { enc =
      (fun w f ->
        sep w;
        let bits = Int64.bits_of_float f in
        (* split into two plain ints up front so the digit loop runs on
           unboxed arithmetic — per-iteration Int64 ops would allocate *)
        let hi = Int64.to_int (Int64.shift_right_logical bits 32) land 0xffffffff in
        let lo = Int64.to_int bits land 0xffffffff in
        let b = Bytes.create 16 in
        for i = 0 to 7 do
          Bytes.unsafe_set b i
            (String.unsafe_get hex_digits ((hi lsr ((7 - i) * 4)) land 0xf));
          Bytes.unsafe_set b (8 + i)
            (String.unsafe_get hex_digits ((lo lsr ((7 - i) * 4)) land 0xf))
        done;
        Buffer.add_bytes w.buf b);
    dec =
      (fun r ->
        let t = token r in
        if String.length t <> 16 then fail "expected float bits, got %S" t;
        let hi = ref 0 and lo = ref 0 in
        for i = 0 to 7 do
          hi := (!hi lsl 4) lor unhex (String.unsafe_get t i);
          lo := (!lo lsl 4) lor unhex (String.unsafe_get t (8 + i))
        done;
        Int64.float_of_bits
          (Int64.logor
             (Int64.shift_left (Int64.of_int !hi) 32)
             (Int64.of_int !lo))) }

let bool =
  { enc = (fun w b -> sep w; Buffer.add_char w.buf (if b then 't' else 'f'));
    dec =
      (fun r ->
        match token r with
        | "t" -> true
        | "f" -> false
        | t -> fail "expected bool, got %S" t) }

let needs_escape c =
  c <= ' ' || c > '~' || c = '%'

let string =
  { enc =
      (fun w s ->
        sep w;
        if String.for_all (fun c -> not (needs_escape c)) s && s <> "" then
          Buffer.add_string w.buf s
        else begin
          (* '%' guards the empty string and every byte outside the
             printable ASCII range *)
          Buffer.add_char w.buf '%';
          String.iter
            (fun c ->
              if needs_escape c then
                Buffer.add_string w.buf (Printf.sprintf "%%%02x" (Char.code c))
              else Buffer.add_char w.buf c)
            s
        end);
    dec =
      (fun r ->
        let t = token r in
        let n = String.length t in
        if n = 0 then fail "empty string token"
        else if t.[0] <> '%' then t
        else begin
          let b = Buffer.create n in
          let i = ref 1 in
          while !i < n do
            if t.[!i] = '%' then begin
              if !i + 2 >= n then fail "truncated escape in %S" t;
              Buffer.add_char b
                (Char.chr ((unhex t.[!i + 1] * 16) + unhex t.[!i + 2]));
              i := !i + 3
            end
            else begin
              Buffer.add_char b t.[!i];
              incr i
            end
          done;
          Buffer.contents b
        end) }

let unit = { enc = (fun _ () -> ()); dec = (fun _ -> ()) }

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

let conv f g c = { enc = (fun w x -> c.enc w (f x)); dec = (fun r -> g (c.dec r)) }

let triple a b c =
  conv (fun (x, y, z) -> (x, (y, z))) (fun (x, (y, z)) -> (x, y, z)) (pair a (pair b c))

let tagged tag c =
  { enc = (fun w x -> string.enc w tag; c.enc w x);
    dec = (fun r -> expect r tag; c.dec r) }

type 'a case =
  | Case : { tag : string; arg : 'b t; inj : 'b -> 'a; proj : 'a -> 'b option }
      -> 'a case

let case tag arg inj proj = Case { tag; arg; inj; proj }

let variant cases =
  let rec enc_case w x = function
    | [] -> invalid_arg "Codec.variant: no case matches"
    | Case c :: rest -> (
        match c.proj x with
        | Some y -> string.enc w c.tag; c.arg.enc w y
        | None -> enc_case w x rest)
  in
  let rec dec_case t r = function
    | [] -> fail "unknown tag %S" t
    | Case c :: rest ->
        if String.equal c.tag t then c.inj (c.arg.dec r) else dec_case t r rest
  in
  { enc = (fun w x -> enc_case w x cases);
    dec = (fun r -> let t = string.dec r in dec_case t r cases) }

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
