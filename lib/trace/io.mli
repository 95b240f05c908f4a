(** Plain-text trace I/O: one connection per line,
    [start duration protocol bytes session_id], tab-separated, with a
    two-line header carrying the trace name and span. Lets generated
    traces be saved, inspected with standard tools, and reloaded. *)

val save : string -> Record.t -> unit
(** [save path trace]: writes the trace; raises [Sys_error] on failure. *)

val load : string -> (Record.t, string) result
(** [Error "FILE:LINE: reason"] (never an exception) on an empty file or
    a bad header, a line with the wrong field count, a number that does
    not parse or is not finite (so a [nan] start is refused), or an
    unknown protocol; [Error] with the system's message if the file
    cannot be read. Blank lines are skipped. *)

val read_table :
  string ->
  kind:string ->
  fields:int ->
  (int -> string array -> 'a) ->
  (string * float * 'a list, string) result
(** [read_table path ~kind ~fields row]: the reader behind both trace
    formats — header lines [# KIND<TAB>name] and [# span<TAB>seconds],
    then one row of exactly [fields] tab-separated fields per non-blank
    line, converted by [row line fields] with its 1-based line number.
    Returns [(name, span, rows)] in file order, or an error as in
    {!load}. [row] reports a bad field through {!number}, {!integer} or
    {!protocol}. *)

val number : int -> string -> string -> float
(** [number line what s]: [s] as a finite float, or a parse error at
    [line] naming [what] (only inside a {!read_table} row). *)

val protocol : int -> string -> Record.protocol
(** Parse errors as {!number}: an unknown protocol name. *)
