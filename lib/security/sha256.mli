(** SHA-256 (FIPS 180-4), used for integrity/authentication of data moving
    between EVEREST nodes.  Verified against the standard test vectors. *)

val digest_bytes : Bytes.t -> Bytes.t
val digest_string : string -> Bytes.t

(** Kept for tests: the FIPS 180-4 digests are published in hex. *)
val hex_of_bytes : Bytes.t -> string

(** Hex digest of a string.  Kept for tests: the FIPS 180-4 test vectors
    are published in hex. *)
val digest_hex : string -> string
