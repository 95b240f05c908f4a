(** Length-prefixed binary frames for the multi-process trace farm.

    A {!Job} worker ships its per-unit partials, telemetry counter
    rollups and a final done summary back to the coordinator over a
    pipe. The wire format is a self-delimiting
    frame:

    {v
      magic   2 bytes  "PF"
      version 1 byte   (currently 1)
      kind    1 byte   (payload discriminator, caller-defined)
      length  4 bytes  payload byte count, little-endian
      payload [length] bytes
      trailer 32 bytes SHA-256 of version .. payload
    v}

    The trailer is a full SHA-256 ({!Sha256}) rather than a CRC: the
    repository already carries the implementation for provenance
    hashing, frames are small (KBs) and rare (hundreds per run), and a
    32-byte trailer makes corruption detection strength a non-issue.

    Decoding is total: every malformed input maps to a typed {!error}
    rather than an exception, so a coordinator can distinguish a
    truncated stream (worker died mid-write) from corruption. *)

type t = { kind : int; payload : string }

val version : int
(** The wire version this build writes (1). *)

val max_payload : int
(** Upper bound on payload length accepted by the decoder (2^28 bytes);
    larger length fields are rejected as [Oversized] without
    allocating. *)

val overhead : int
(** Fixed bytes per frame beyond the payload: 8 header + 32 trailer. *)

type error =
  | Truncated  (** Input ended inside a frame. *)
  | Bad_magic
  | Unsupported_version of int
  | Oversized of int  (** Length field beyond {!max_payload}. *)
  | Bad_checksum

val error_to_string : error -> string

val encode : t -> string
(** Raises [Invalid_argument] when the payload exceeds {!max_payload}
    or [kind] is outside [0, 255]. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the encoding of a frame to [b] (what {!encode} wraps). *)

val decode : string -> int -> (t * int, error) result
(** [decode s pos]: decode one frame starting at byte [pos]; on success
    returns the frame and the offset just past it. A clean end of input
    at [pos] is [Error Truncated] too — use [pos = String.length s] to
    detect exhaustion before calling. *)

val read : in_channel -> (t option, error) result
(** Read one frame from a channel. [Ok None] on end-of-file at a frame
    boundary; [Error Truncated] on end-of-file inside a frame. *)

(** {1 Payload primitives}

    Little-endian fixed-width scalar codecs shared by every payload
    encoder in the repository (frame payloads, pyramid snapshot
    serialization), so byte layout decisions live in one place. *)

module Wr : sig
  val u8 : Buffer.t -> int -> unit
  val u16 : Buffer.t -> int -> unit
  val u32 : Buffer.t -> int -> unit
  val i64 : Buffer.t -> int -> unit
  val f64 : Buffer.t -> float -> unit
  (** IEEE bits via [Int64.bits_of_float]: exact round-trip, including
      nan payloads and signed zeros. *)

  val str : Buffer.t -> string -> unit
  (** [u16] length prefix + bytes; raises [Invalid_argument] past
      65535 bytes. *)
end

module Rd : sig
  type cursor

  exception Malformed of string
  (** Raised by every getter on out-of-range reads; decoders catch it
      at their boundary and return an [Error]. *)

  val of_string : string -> cursor
  val u8 : cursor -> int
  val u16 : cursor -> int
  val u32 : cursor -> int
  val i64 : cursor -> int
  val f64 : cursor -> float
  val str : cursor -> string

  val rest : cursor -> string
  (** The unread remainder (possibly empty); the cursor ends at the end. *)

  val at_end : cursor -> bool
end
