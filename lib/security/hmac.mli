(** HMAC-SHA256 (RFC 2104), the authentication primitive behind the
    [sec.mac] operation. *)

val block_size : int
val hmac_sha256 : key:Bytes.t -> Bytes.t -> Bytes.t

(** Kept for tests: the RFC 4231 test vectors are published in hex. *)
val hmac_hex : key:string -> string -> string

(** Constant-time tag verification. *)
val verify : key:Bytes.t -> msg:Bytes.t -> tag:Bytes.t -> bool
