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

(* FNV-1a 32-bit: record checksums are a torn-write detector on the hot
   append path, not a cryptographic seal — a cheap in-OCaml hash beats an
   MD5 round-trip per record by an order of magnitude. *)
let checksum_raw payload =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length payload - 1 do
    h :=
      (!h lxor Char.code (String.unsafe_get payload i))
      * 0x01000193 land 0xffffffff
  done;
  !h

let hex_digits = "0123456789abcdef"

let checksum payload =
  let h = checksum_raw payload in
  String.init 8 (fun i -> hex_digits.[(h lsr ((7 - i) * 4)) land 0xf])

(* Write a record straight to [oc] — payload then " #xxxxxxxx\n" trailer
   — without building the line.  One append per simulated event makes
   this framing hot, and under OCaml 5 every channel call takes the
   channel's lock, so the 11 trailer bytes are built first and written
   in one call.  Returns the bytes written. *)
let output_record oc payload =
  if String.contains payload '\n' then
    invalid_arg "Journal.output_record: payload contains newline";
  let h = checksum_raw payload in
  let trailer = Bytes.create 11 in
  Bytes.unsafe_set trailer 0 ' ';
  Bytes.unsafe_set trailer 1 '#';
  for i = 0 to 7 do
    Bytes.unsafe_set trailer (2 + i)
      (String.unsafe_get hex_digits ((h lsr ((7 - i) * 4)) land 0xf))
  done;
  Bytes.unsafe_set trailer 10 '\n';
  output_string oc payload;
  output_bytes oc trailer;
  String.length payload + 11

let decode_record line =
  match String.rindex_opt line '#' with
  | Some i
    when i >= 1
         && line.[i - 1] = ' '
         && String.length line - i - 1 = 8 ->
      let payload = String.sub line 0 (i - 1) in
      let sum = String.sub line (i + 1) 8 in
      if String.equal sum (checksum payload) then Some payload else None
  | _ -> None

type segment = {
  sg_records : string list;  (* decoded payloads, in append order *)
  sg_torn : bool;            (* true when a trailing record failed its checksum *)
  sg_valid_bytes : int;      (* prefix length covering magic + valid records *)
}

(* Lenient read: a missing file is an empty segment, a bad magic line is
   fully torn, and decoding stops at the first invalid record. *)
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
    let lines = String.split_on_char '\n' raw in
    match lines with
    | m :: rest when String.equal m magic_line ->
        let valid = ref (String.length magic_line + 1) in
        let torn = ref false in
        let records = ref [] in
        let rec go = function
          | [] | [ "" ] -> ()
          | line :: tl -> (
              match decode_record line with
              | Some payload ->
                  records := payload :: !records;
                  valid := !valid + String.length line + 1;
                  go tl
              | None -> torn := true)
        in
        go rest;
        {
          sg_records = List.rev !records;
          sg_torn = !torn;
          sg_valid_bytes = !valid;
        }
    | _ -> { sg_records = []; sg_torn = true; sg_valid_bytes = 0 }
  end
