(* AES-128 block cipher (FIPS-197).

   The EVEREST library of "optimized accelerators for memory and near-memory
   encryption" needs a real cipher underneath: this is a straightforward
   table-based software implementation whose correctness is checked against
   the FIPS-197 known-answer vectors in the test suite.  The HLS flow models
   its accelerated counterpart. *)

let sbox =
  [| 0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b;
     0xfe; 0xd7; 0xab; 0x76; 0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0;
     0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0; 0xb7; 0xfd; 0x93; 0x26;
     0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
     0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2;
     0xeb; 0x27; 0xb2; 0x75; 0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0;
     0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84; 0x53; 0xd1; 0x00; 0xed;
     0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
     0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f;
     0x50; 0x3c; 0x9f; 0xa8; 0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5;
     0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2; 0xcd; 0x0c; 0x13; 0xec;
     0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
     0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14;
     0xde; 0x5e; 0x0b; 0xdb; 0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c;
     0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79; 0xe7; 0xc8; 0x37; 0x6d;
     0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
     0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f;
     0x4b; 0xbd; 0x8b; 0x8a; 0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e;
     0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e; 0xe1; 0xf8; 0x98; 0x11;
     0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
     0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f;
     0xb0; 0x54; 0xbb; 0x16 |]

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

(* GF(2^8) multiplication. *)
let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      go (xtime a) (b lsr 1) (if b land 1 = 1 then acc lxor a else acc)
  in
  go a b 0

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* Key expansion: 16-byte key -> 11 round keys of 16 bytes each. *)
let expand_key (key : Bytes.t) =
  if Bytes.length key <> 16 then invalid_arg "aes: key must be 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <-
      (Char.code (Bytes.get key (4 * i)) lsl 24)
      lor (Char.code (Bytes.get key ((4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get key ((4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get key ((4 * i) + 3))
  done;
  for i = 4 to 43 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then
        let rot = ((temp lsl 8) lor (temp lsr 24)) land 0xffffffff in
        let sub =
          (sbox.((rot lsr 24) land 0xff) lsl 24)
          lor (sbox.((rot lsr 16) land 0xff) lsl 16)
          lor (sbox.((rot lsr 8) land 0xff) lsl 8)
          lor sbox.(rot land 0xff)
        in
        sub lxor (rcon.((i / 4) - 1) lsl 24)
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

let add_round_key state w round =
  for c = 0 to 3 do
    let word = w.((round * 4) + c) in
    state.((4 * c) + 0) <- state.((4 * c) + 0) lxor ((word lsr 24) land 0xff);
    state.((4 * c) + 1) <- state.((4 * c) + 1) lxor ((word lsr 16) land 0xff);
    state.((4 * c) + 2) <- state.((4 * c) + 2) lxor ((word lsr 8) land 0xff);
    state.((4 * c) + 3) <- state.((4 * c) + 3) lxor (word land 0xff)
  done

(* state layout: state.(4*col + row) *)
let sub_bytes state = Array.iteri (fun i v -> state.(i) <- sbox.(v)) state

let shift_rows state =
  for r = 1 to 3 do
    let row = Array.init 4 (fun c -> state.((4 * c) + r)) in
    for c = 0 to 3 do
      state.((4 * c) + r) <- row.((c + r) mod 4)
    done
  done

let mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) in
    let a2 = state.((4 * c) + 2) and a3 = state.((4 * c) + 3) in
    state.(4 * c) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
    state.((4 * c) + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
    state.((4 * c) + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
    state.((4 * c) + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
  done

type key = int array  (* expanded key schedule *)

let key_of_bytes = expand_key
let key_of_string s = expand_key (Bytes.of_string s)

let encrypt_block (w : key) (input : Bytes.t) : Bytes.t =
  if Bytes.length input <> 16 then invalid_arg "aes: block must be 16 bytes";
  let state = Array.init 16 (fun i -> Char.code (Bytes.get input i)) in
  add_round_key state w 0;
  for round = 1 to 9 do
    sub_bytes state;
    shift_rows state;
    mix_columns state;
    add_round_key state w round
  done;
  sub_bytes state;
  shift_rows state;
  add_round_key state w 10;
  Bytes.init 16 (fun i -> Char.chr state.(i))

(* CTR mode: stream cipher usable for arbitrary-length buffers; encryption
   and decryption are the same operation. *)
let ctr_transform (w : key) ~(nonce : Bytes.t) (data : Bytes.t) : Bytes.t =
  if Bytes.length nonce <> 8 then invalid_arg "aes-ctr: nonce must be 8 bytes";
  let out = Bytes.copy data in
  let n = Bytes.length data in
  let counter_block i =
    let b = Bytes.make 16 '\000' in
    Bytes.blit nonce 0 b 0 8;
    let c = ref i in
    for k = 15 downto 8 do
      Bytes.set b k (Char.chr (!c land 0xff));
      c := !c lsr 8
    done;
    b
  in
  let nblocks = (n + 15) / 16 in
  for i = 0 to nblocks - 1 do
    let ks = encrypt_block w (counter_block i) in
    let base = i * 16 in
    for j = 0 to min 15 (n - base - 1) do
      Bytes.set out (base + j)
        (Char.chr
           (Char.code (Bytes.get data (base + j))
           lxor Char.code (Bytes.get ks j)))
    done
  done;
  out

let to_hex (b : Bytes.t) =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let of_hex (s : string) =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
