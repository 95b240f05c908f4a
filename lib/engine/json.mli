(** Minimal JSON: a value type, a printer, and a recursive-descent
    parser. The observability layer (structured log lines, the run
    manifest, perf history records) both writes and reads JSON, and the
    repository deliberately carries no third-party JSON dependency —
    this module is the single shared implementation.

    The printer emits no insignificant whitespace except where asked
    ({!to_string} [~indent]); the parser accepts the full JSON grammar
    (numbers, nested containers, escapes including [\uXXXX] for the
    BMP). Integers are kept distinct from floats so manifests print
    ["seed": 42] rather than ["seed": 42.0]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-literal escaping of the control range plus quote and
    backslash (no surrounding quotes). *)

val to_string : ?indent:bool -> t -> string
(** Serialize. [indent] (default false) pretty-prints containers two
    spaces per level. Floats print via ["%.12g"], or ["%.17g"] when 12
    digits would not parse back to the same float, so finite floats
    round-trip exactly ([nan] and infinities, which JSON cannot
    represent, print as [null]). *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    garbage is an error). Numbers with [.], [e] or [E] — or too large
    for an OCaml [int] — become [Float], all others [Int]. Error
    strings carry the byte offset. *)

(** {1 Accessors} — total functions used by the manifest / history
    readers; they return [None] on shape mismatch rather than raising. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val to_list_opt : t -> t list option
val to_str_opt : t -> string option

val to_int_opt : t -> int option
(** Accepts [Int], and [Float] when integral. *)

val to_float_opt : t -> float option
(** Accepts [Float] and [Int]. *)
