(** AES-128 block cipher (FIPS-197) and CTR mode.

    The software reference under the EVEREST "library of optimized
    accelerators for memory and near-memory encryption"; correctness is
    checked against the FIPS-197 / SP800-38A known-answer vectors in the
    test suite.  The HLS flow models its accelerated counterpart. *)

(** Expanded key schedule. *)
type key

(** @raise Invalid_argument unless the key is 16 bytes. *)
val key_of_bytes : Bytes.t -> key

val key_of_string : string -> key

(** @raise Invalid_argument unless the block is 16 bytes. *)
val encrypt_block : key -> Bytes.t -> Bytes.t

(** CTR keystream transform over arbitrary-length data: encryption and
    decryption are the same operation.
    @raise Invalid_argument unless the nonce is 8 bytes. *)
val ctr_transform : key -> nonce:Bytes.t -> Bytes.t -> Bytes.t

(** GF(2^8) multiplication (exposed for tests). *)
val gmul : int -> int -> int

val to_hex : Bytes.t -> string

(** Kept for tests: the FIPS-197 and SP800-38A known-answer vectors are
    published in hex. *)
val of_hex : string -> Bytes.t
