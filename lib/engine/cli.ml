type action = Run | List | Perf | Version

type config = {
  action : action;
  jobs : int;
  seed : int;
  only : string list;
  out : string option;
  metrics : bool;
  trace : string option;
  log : string option;
  log_level : Log.level;
  record : string option;
  report_html : string option;
}

(* Open without truncating: the probe must not destroy an existing file
   when a later step fails. *)
let check_writable_file path =
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
  | oc ->
    close_out_noerr oc;
    Ok ()
  | exception Sys_error msg -> Error (Printf.sprintf "cannot write %s" msg)

type outcome = Config of config | Help of string | Error of string

let usage_msg prog =
  Printf.sprintf
    "usage: %s [--jobs N] [--seed S] [--only ID[,ID...]] [--out DIR] \
     [--metrics] [--trace FILE] [--log FILE] [--log-level LVL] \
     [--report-html FILE] [--record FILE] [--list] [--perf] [--version]"
    prog

let parse ?jobs_default argv =
  let prog = if Array.length argv > 0 then argv.(0) else "bench" in
  let action = ref Run in
  let jobs =
    ref (match jobs_default with Some j -> j | None -> Pool.default_jobs ())
  in
  let seed = ref 0 in
  let only = ref [] in
  let out = ref None in
  let metrics = ref false in
  let trace = ref None in
  let log = ref None in
  let log_level = ref Log.Info in
  let bad_level = ref None in
  let record = ref None in
  let report_html = ref None in
  let add_only s =
    only :=
      !only
      @ List.filter (fun id -> id <> "") (String.split_on_char ',' s)
  in
  let set_level s =
    match Log.level_of_string s with
    | Some l -> log_level := l
    | None -> bad_level := Some s
  in
  let specs =
    Arg.align
      [
        ("--jobs", Arg.Set_int jobs,
         "N Worker domains (default: one per core)");
        ("--seed", Arg.Set_int seed,
         "S Root seed for per-experiment RNG streams (default 0)");
        ("--only", Arg.String add_only,
         "IDS Comma-separated experiment ids, or benchmark names under \
          --perf (repeatable)");
        ("--out", Arg.String (fun d -> out := Some d),
         "DIR Write per-experiment artifacts (report + SVG) and the \
          run.json manifest under DIR");
        ("--metrics", Arg.Set metrics,
         " Record telemetry; print the span/counter summary to stderr");
        ("--trace", Arg.String (fun f -> trace := Some f),
         "FILE Record telemetry; write Chrome trace-event JSON to FILE");
        ("--log", Arg.String (fun f -> log := Some f),
         "FILE Record structured events; stream JSONL to FILE");
        ("--log-level", Arg.String set_level,
         "LVL Minimum level recorded: debug, info, warn, error \
          (default info)");
        ("--report-html", Arg.String (fun f -> report_html := Some f),
         "FILE Write a self-contained HTML run report to FILE");
        ("--record", Arg.String (fun f -> record := Some f),
         "FILE Under --perf: append a timestamped sample record to FILE");
        ("--list", Arg.Unit (fun () -> action := List),
         " List experiment ids and exit");
        ("--perf", Arg.Unit (fun () -> action := Perf),
         " Run Bechamel micro-benchmarks of the hot primitives");
        ("--version", Arg.Unit (fun () -> action := Version),
         " Print build info and exit");
      ]
  in
  let anon a = raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)) in
  match Arg.parse_argv ~current:(ref 0) argv specs anon (usage_msg prog) with
  | () -> (
    match !bad_level with
    | Some s ->
      Error
        (Printf.sprintf
           "unknown log level %S (want debug, info, warn or error)" s)
    | None ->
      if !jobs < 1 then Error "--jobs must be at least 1"
      else
        Config
          { action = !action; jobs = !jobs; seed = !seed; only = !only;
            out = !out; metrics = !metrics; trace = !trace; log = !log;
            log_level = !log_level; record = !record;
            report_html = !report_html })
  | exception Arg.Bad msg -> Error msg
  | exception Arg.Help msg -> Help msg
