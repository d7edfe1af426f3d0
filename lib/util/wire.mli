(** The one binary layout behind every persisted record: verdicts
    (OPR3), quarantine records (OQR1), telemetry samples (OTL1),
    provenance blobs, and the CRC frame that carries each of them in a
    journal or over a sandbox pipe.

    Codecs describe their fields in order with the [put_*] writers and
    the matching [get_*] readers; only this module knows how those fields
    are laid out:

    - a tag is one raw byte, a magic is raw bytes;
    - an int is 8 bytes, little-endian two's complement (i64le);
    - a string is a u32le byte length, then the bytes;
    - a list or array is an i64le element count, then the elements;
    - a bool is ['1'] or ['0']; an option is ['0'], or ['1'] then the
      value.

    Decoding is total.  The reader checks every length and count against
    the bytes that remain before it reads or allocates, a reader function
    rejects a record by calling {!fail}, and {!decode} is the only place a
    rejection is caught: a malformed, truncated, padded or foreign record
    decodes to [None] and never raises.  No [Marshal] is involved —
    journal bytes survive crashes and disk corruption by design, and
    unmarshalling them could crash the process. *)

(** {1 Writing} *)

val put_char : Buffer.t -> char -> unit
val put_magic : Buffer.t -> string -> unit
val put_bool : Buffer.t -> bool -> unit
val put_int : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val put_array : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit
val put_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

(** {1 Reading} *)

type reader
(** A bounds-checked cursor over one record. *)

val decode : string -> (reader -> 'a) -> 'a option
(** [decode s f] runs [f] over [s] and returns its value when [f]
    neither rejected the record nor left bytes unread; [None]
    otherwise. *)

val fail : unit -> 'a
(** Reject the record being decoded (an unknown tag, an out-of-range
    field).  Only valid inside a {!decode} reader function. *)

val at_end : reader -> bool
(** No bytes remain: how optional trailing fields are detected. *)

val get_char : reader -> char
val get_magic : reader -> int -> string
(** [get_magic r n] is the next [n] raw bytes. *)

val get_bool : reader -> bool
val get_int : reader -> int
val get_string : reader -> string

val get_list : reader -> (reader -> 'a) -> 'a list
(** [get_list r f] reads a counted list of [f] elements.  A count larger
    than the bytes that remain is rejected before anything is
    allocated. *)

val get_array : reader -> (reader -> 'a) -> 'a array
val get_option : reader -> (reader -> 'a) -> 'a option

(** {1 Frames}

    [[len:u32le][crc32(payload):u32le][payload]]: how a journal stores
    each record and how a sandboxed child returns its result. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, the zlib polynomial). *)

val frame : string -> string

val unframe : string -> int -> (string * int, string) result
(** [unframe data off] is the payload of the frame starting at [off]
    and the offset just past it, or [Error why] when the bytes there are
    a short header, an implausible length (over 64 MiB: mid-frame
    garbage, not a record), a truncated payload or a CRC mismatch. *)
