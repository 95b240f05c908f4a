(** Argument parsing for the bench harness, factored out of the
    executable so malformed command lines are unit-testable. Unknown
    flags and stray positional arguments are errors (they used to fall
    through to "run everything"). *)

type action =
  | Run  (** Run experiments (the default). *)
  | List  (** Print the experiment ids and exit. *)
  | Perf  (** Bechamel micro-benchmarks. *)
  | Version  (** Print {!Build_info.describe} and exit. *)

type config = {
  action : action;
  jobs : int;  (** Worker domains; >= 1. *)
  seed : int;  (** Root seed for per-experiment RNG streams. *)
  only : string list;
      (** Empty = everything. Experiment ids under [Run]; benchmark
          names under [Perf]. *)
  out : string option;
      (** Directory for per-experiment artifacts plus the [run.json]
          provenance manifest. *)
  metrics : bool;
      (** Enable {!Telemetry} and print its summary table to stderr. *)
  trace : string option;
      (** Enable {!Telemetry} and write Chrome trace-event JSON here. *)
  log : string option;
      (** Enable {!Log} and stream JSONL events to this file. *)
  log_level : Log.level;  (** Minimum level recorded (default Info). *)
  record : string option;
      (** Under [Perf]: append a {!Perf_history} record here. *)
  report_html : string option;  (** Write the HTML run report here. *)
}

val check_writable_file : string -> (unit, string) result
(** Output-path preflight shared by the command-line frontends: [Error
    "cannot write <path>: <reason>"] when [path] cannot be opened for
    writing. Creates the file if absent but never truncates it, so a
    failed run does not destroy an existing output. *)

type outcome =
  | Config of config
  | Help of string  (** --help: the usage text to print, exit 0. *)
  | Error of string  (** Bad command line: message + usage, exit 2. *)

val parse : ?jobs_default:int -> string array -> outcome
(** [parse argv] (argv.(0) is the program name). [jobs_default]
    defaults to {!Pool.default_jobs}. *)
