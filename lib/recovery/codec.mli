(** Byte-deterministic token codec for snapshots and journal records.

    A record is one line of space-separated tokens.  Each persisted type
    is declared once, as a codec value ['a t] that pairs its encoder with
    its decoder; the decoder is the exact inverse of the encoder and
    fails with {!Decode} on anything else — a record that does not parse
    is corrupt, never half-loaded.  Decoders accept only the bytes the
    encoder writes: whenever [decode c s] succeeds,
    [encode c (decode c s) = s]. *)

exception Decode of string

(** {2 Writing and reading} *)

(** A growable byte buffer that tokens are written into in place. *)
type writer

val writer : unit -> writer

(** Everything written so far. *)
val contents : writer -> string

(** Whether the writer holds exactly the bytes of the string, compared
    in place. *)
val contents_equal : writer -> string -> bool

(** Empty the writer for reuse (hot paths encode one record per event
    into one writer). *)
val reset : writer -> unit

(** {3 Framing}

    For the journal, which checksums, frames and writes a record straight
    from the writer's bytes. *)

(** Bytes written so far. *)
val length : writer -> int

(** The writer's storage: its first [length w] bytes are what was
    written.  A later write may replace it. *)
val buffer : writer -> bytes

(** The next three write their argument as it is: no separator, no
    escaping. *)

val add_char : writer -> char -> unit
val add_string : writer -> string -> unit

(** The 8 lowercase hex digits of the low 32 bits. *)
val add_hex32 : writer -> int -> unit

type reader

(** {2 Codecs} *)

type 'a t = { enc : writer -> 'a -> unit; dec : reader -> 'a }

(** The value as one record. *)
val encode : 'a t -> 'a -> string

(** Parse one whole record.
    @raise Decode on a malformed record or trailing tokens. *)
val decode : 'a t -> string -> 'a

(** A decimal integer token: ['-'] for negatives, no ['+'], no leading
    zeros. *)
val int : int t

(** The 16 lowercase hex digits of the IEEE-754 bit pattern: bit-exact
    for every double, including infinities, NaNs and signed zeros. *)
val float : float t

(** [t] or [f]. *)
val bool : bool t

(** The string itself when it is non-empty printable ASCII without
    ['%']; otherwise ['%'] followed by the string with every other byte
    as [%xx] in lowercase hex. *)
val string : string t

(** No tokens. *)
val unit : unit t

(** A count prefix, then the items. *)
val list : 'a t -> 'a list t

(** A bool tag, then the value when the tag is [t]. *)
val option : 'a t -> 'a option t

(** The components in order. *)
val pair : 'a t -> 'b t -> ('a * 'b) t

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** A literal tag token, then the value.  The decoder checks the tag —
    a schema self-check at the head of a record. *)
val tagged : string -> 'a t -> 'a t

(** One name token per value, e.g. [enum [ ("closed", Closed); … ]].
    @raise Invalid_argument when encoding an unlisted value. *)
val enum : (string * 'a) list -> 'a t

(** {3 Variants} *)

type 'a case

(** [case tag arg inj proj]: the constructor [inj] with argument codec
    [arg], written as the leading token [tag] followed by the argument.
    [proj] recognises the constructor. *)
val case : string -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case

(** A leading tag token selects the case; encoding uses the first case
    whose [proj] matches. *)
val variant : 'a case list -> 'a t

(** {3 Records}

    {[
      let point =
        Codec.(
          record (fun x y -> { x; y })
          |> field float (fun p -> p.x)
          |> field float (fun p -> p.y)
          |> seal)
    ]}
    Fields are written in the order they are listed, with no framing. *)

type ('r, 'k) fields

(** Start from the record's curried constructor. *)
val record : 'k -> ('r, 'k) fields

(** The next field: its codec and its getter. *)
val field : 'a t -> ('r -> 'a) -> ('r, 'a -> 'k) fields -> ('r, 'k) fields

(** Close the record once every constructor argument has a field. *)
val seal : ('r, 'r) fields -> 'r t
