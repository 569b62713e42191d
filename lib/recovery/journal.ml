(* Write-ahead journal record framing.

   A journal segment is a text file:

     EVEREST-JRNL v1
     <payload> #<8 hex chars of fnv1a32(payload)>
     ...

   Each record carries its own checksum so a torn tail (the crash wrote
   half a line) is detected record-locally: readers stop at the first
   record that fails its checksum and report how many bytes were valid,
   letting the store truncate the tail instead of rejecting the whole
   segment. *)

let magic_line = "EVEREST-JRNL v1"

(* Raised by the store when an armed crash point fires mid-append. *)
exception Crashed

(* FNV-1a 32-bit over the payload of a record line, [len] bytes of [b]
   from [off]: record checksums are a torn-write detector on the hot
   append path, not a cryptographic seal — a cheap in-OCaml hash beats
   an MD5 round-trip per record by an order of magnitude.  Unboxed
   [Int32] arithmetic wraps at 32 bits by itself, where tagged ints need
   a mask per byte.  The same pass refuses a newline, which would split
   the line; it costs next to nothing beside the multiply each byte
   waits for. *)
let checksum b off len =
  let h = ref 0x811c9dc5l and newline = ref false in
  for i = off to off + len - 1 do
    let c = Bytes.unsafe_get b i in
    if c = '\n' then newline := true;
    h := Int32.mul (Int32.logxor !h (Int32.of_int (Char.code c))) 0x01000193l
  done;
  if !newline then invalid_arg "Journal.output_record: payload contains newline";
  Int32.to_int !h land 0xffffffff

(* The trailer after a payload: " #", its checksum's 8 hex digits and
   the newline. *)
let trailer_length = 11

(* Frame the payload [w] holds as one record line and write the line to
   [oc] in one channel call: one append per simulated event makes this
   hot, and under OCaml 5 every channel call takes the channel's lock.
   The trailer is written into [w] after the payload.  Returns the bytes
   written. *)
let output_framed oc w =
  let n = Codec.length w in
  let h = checksum (Codec.buffer w) 0 n in
  Codec.add_char w ' ';
  Codec.add_char w '#';
  Codec.add_hex32 w h;
  Codec.add_char w '\n';
  output oc (Codec.buffer w) 0 (n + trailer_length);
  n + trailer_length

let output_record oc payload =
  let w = Codec.writer () in
  Codec.add_string w payload;
  output_framed oc w

let hex_digits = "0123456789abcdef"

(* The payload length of the line from [a] to [e] in [raw] when the line
   is a payload followed by the trailer of its checksum (lowercase hex,
   as written), or -1. *)
let payload_length raw a e =
  let p = e - a - (trailer_length - 1) in
  if p < 0 || raw.[a + p] <> ' ' || raw.[a + p + 1] <> '#' then -1
  else begin
    let h = checksum (Bytes.unsafe_of_string raw) a p in
    let ok = ref true in
    for i = 0 to 7 do
      if raw.[a + p + 2 + i] <> hex_digits.[(h lsr ((7 - i) * 4)) land 0xf] then
        ok := false
    done;
    if !ok then p else -1
  end

type segment = {
  sg_records : string list;  (* decoded payloads, in append order *)
  sg_torn : bool;            (* true when a trailing record failed its checksum *)
  sg_valid_bytes : int;      (* prefix length covering magic + valid records *)
}

(* Lenient read: a missing file is an empty segment, a bad magic line is
   fully torn, and decoding stops at the first invalid record.  A line
   without its newline, the magic line included, is a torn tail: a crash
   can cut a record just before its newline, and an append after it would
   land on the same line. *)
let read_segment path =
  if not (Sys.file_exists path) then
    { sg_records = []; sg_torn = false; sg_valid_bytes = 0 }
  else begin
    let ic = open_in_bin path in
    let raw =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let n = String.length raw and m = String.length magic_line in
    if
      n <= m
      || raw.[m] <> '\n'
      || not (String.equal (String.sub raw 0 m) magic_line)
    then { sg_records = []; sg_torn = true; sg_valid_bytes = 0 }
    else begin
      (* each line from [a]: a record, or the first invalid one *)
      let rec go a valid records =
        if a >= n then (records, false, valid)
        else begin
          let e = ref a in
          while !e < n && String.unsafe_get raw !e <> '\n' do
            incr e
          done;
          let p = if !e = n then -1 else payload_length raw a !e in
          if p < 0 then (records, true, valid)
          else go (!e + 1) (valid + !e - a + 1) (String.sub raw a p :: records)
        end
      in
      let records, torn, valid = go (m + 1) (m + 1) [] in
      { sg_records = List.rev records; sg_torn = torn; sg_valid_bytes = valid }
    end
  end
