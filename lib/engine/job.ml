(* One coordinator for sharded multi-process jobs: the frame envelope,
   the stride loop shared by the worker and run_inline, the worker
   process pool and the coordinator absorb. See job.mli for the
   contract and DESIGN.md section 12 for the wire format. *)

type ('spec, 'partial) t = {
  name : string;
  units : 'spec -> int;
  compute : tick:(events:int -> unit) -> 'spec -> int -> 'partial;
  encode : 'partial -> string;
  decode : string -> ('partial, string) result;
  spec_to_json : 'spec -> Json.t;
  spec_of_json : Json.t -> ('spec, string) result;
}

type opts = {
  metrics : bool;
  trace : bool;
  logs : bool;
  stall_timeout_s : float;
  progress : bool;
  inject_crash : int;
  inject_stall : int;
}

let default_opts =
  {
    metrics = false;
    trace = false;
    logs = false;
    stall_timeout_s = 30.;
    progress = false;
    inject_crash = -1;
    inject_stall = -1;
  }

let heartbeat_period o =
  if o.stall_timeout_s > 0. then Float.min 1. (o.stall_timeout_s /. 4.) else 1.

type obs = {
  o_workers : Manifest.worker_entry list;
  o_spans : (int * float * Telemetry.event list) list;
  o_counters : (int * (string * int) list) list;
}

(* ---------------- envelope ---------------- *)

(* Every analysis kind lives here; 16+ belong to Obs_frame. *)
let kind_unit = 1
let kind_counters = 2
let kind_done = 3

let unit_frame u payload =
  let b = Buffer.create (String.length payload + 4) in
  Frame.Wr.u32 b u;
  Buffer.add_string b payload;
  { Frame.kind = kind_unit; payload = Buffer.contents b }

let counters_frame counters =
  let b = Buffer.create 128 in
  Frame.Wr.u16 b (List.length counters);
  List.iter
    (fun (name, v) ->
      Frame.Wr.str b name;
      Frame.Wr.i64 b v)
    counters;
  { Frame.kind = kind_counters; payload = Buffer.contents b }

type summary = { s_units : int; s_events : int; s_wall : float; s_rss : int }

let done_frame s =
  let b = Buffer.create 32 in
  Frame.Wr.u32 b s.s_units;
  Frame.Wr.i64 b s.s_events;
  Frame.Wr.f64 b s.s_wall;
  Frame.Wr.i64 b s.s_rss;
  { Frame.kind = kind_done; payload = Buffer.contents b }

type 'p decoded =
  | D_unit of int * 'p
  | D_counters of (string * int) list
  | D_done of summary

let decode_frame job (f : Frame.t) =
  let open Frame.Rd in
  match
    let c = of_string f.payload in
    if f.kind = kind_unit then begin
      let u = u32 c in
      match job.decode (rest c) with
      | Ok p -> D_unit (u, p)
      | Error e -> raise (Malformed e)
    end
    else if f.kind = kind_counters then
      D_counters
        (List.init (u16 c) (fun _ ->
             let name = str c in
             (name, i64 c)))
    else if f.kind = kind_done then begin
      let s_units = u32 c in
      let s_events = i64 c in
      let s_wall = f64 c in
      D_done { s_units; s_events; s_wall; s_rss = i64 c }
    end
    else raise (Malformed (Printf.sprintf "unknown frame kind %d" f.kind))
  with
  | d -> Ok d
  | exception Malformed m -> Error m

let roundtrip frame =
  match Frame.decode (Frame.encode frame) 0 with
  | Ok (f, _) -> f
  | Error e -> failwith (Frame.error_to_string e)

(* ---------------- spec codec ---------------- *)

type fields = {
  int : string -> int;
  float : string -> float;
  str : string -> string;
}

exception Missing of string

let read_fields j build =
  let get conv k =
    match Option.bind (Json.member k j) conv with
    | Some v -> v
    | None -> raise (Missing k)
  in
  match
    build
      {
        int = get Json.to_int_opt;
        float = get Json.to_float_opt;
        str = get Json.to_str_opt;
      }
  with
  | v -> Ok v
  | exception Missing k -> Error ("missing field " ^ k)

let check_finite who fields =
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then
        invalid_arg (Printf.sprintf "%s: %s must be finite (got %g)" who name v))
    fields

(* The worker's one argument: its place in the pool, the run options
   and the job's spec. *)
let envelope job ~opts ~workers spec ~index =
  let flag b = Json.Int (if b then 1 else 0) in
  Json.to_string
    (Json.Obj
       [
         ("index", Json.Int index);
         ("workers", Json.Int workers);
         ("metrics", flag opts.metrics);
         ("trace", flag opts.trace);
         ("logs", flag opts.logs);
         ("stall_timeout_s", Json.Float opts.stall_timeout_s);
         ("progress", flag opts.progress);
         ("inject_crash", Json.Int opts.inject_crash);
         ("inject_stall", Json.Int opts.inject_stall);
         ("spec", job.spec_to_json spec);
       ])

let parse_envelope job arg =
  Result.bind (Json.parse arg) (fun j ->
      Result.bind
        (read_fields j (fun f ->
             ( f.int "index",
               f.int "workers",
               {
                 metrics = f.int "metrics" <> 0;
                 trace = f.int "trace" <> 0;
                 logs = f.int "logs" <> 0;
                 stall_timeout_s = f.float "stall_timeout_s";
                 progress = f.int "progress" <> 0;
                 inject_crash = f.int "inject_crash";
                 inject_stall = f.int "inject_stall";
               } )))
        (fun (index, workers, opts) ->
          Result.map
            (fun spec -> (index, workers, opts, spec))
            (job.spec_of_json (Option.value ~default:Json.Null (Json.member "spec" j)))))

(* ---------------- the stride loop ---------------- *)

(* Worker [index] of [workers] computes units index, index + workers,
   ... — each under a telemetry span — and hands each unit frame to
   [ship], then runs [after]. [beat ~units ~events] fires from the
   job's tick at most every [period] seconds (and once up front), so a
   long unit still proves liveness. Returns (units, events) done.
   Shared by the worker process and [run_inline]. *)
let stride job spec ~index ~workers ~period ~beat ~ship ~after =
  let n = job.units spec in
  let units = ref 0 and events = ref 0 and unit_events = ref 0 in
  let last = ref neg_infinity in
  let tick ~events:ev =
    unit_events := ev;
    let now = Unix.gettimeofday () in
    if now -. !last >= period then begin
      last := now;
      beat ~units:!units ~events:(!events + ev)
    end
  in
  tick ~events:0;
  let u = ref index in
  while !u < n do
    unit_events := 0;
    let p =
      Telemetry.span ~name:(job.name ^ ".unit") (fun () -> job.compute ~tick spec !u)
    in
    ship (unit_frame !u (job.encode p));
    incr units;
    events := !events + !unit_events;
    after ();
    u := !u + workers
  done;
  (!units, !events)

let rss_or_minus f = match f () with Some kb -> kb | None -> -1

let worker_main job arg =
  let fail code m =
    Printf.eprintf "%s-worker: %s\n%!" job.name m;
    code
  in
  match parse_envelope job arg with
  | Error e -> fail 2 ("bad worker envelope: " ^ e)
  | Ok (index, workers, opts, spec) -> (
    match job.units spec with
    | exception Invalid_argument e -> fail 2 e
    | n -> (
      try
        set_binary_mode_out stdout true;
        let ship f =
          output_string stdout (Frame.encode f);
          flush stdout
        in
        if opts.metrics || opts.trace then begin
          Telemetry.set_enabled true;
          Telemetry.reset ()
        end;
        if opts.logs then Log.set_enabled true;
        Log.info (job.name ^ ".worker_start")
          [ ("worker", Log.I index); ("pid", Log.I (Unix.getpid ())); ("units", Log.I n) ];
        let t0 = Unix.gettimeofday () in
        let beat ~units ~events =
          ship
            (Obs_frame.heartbeat_frame
               {
                 Obs_frame.hb_index = index;
                 hb_events = events;
                 hb_shards = units;
                 hb_rate = float_of_int events /. Float.max (Unix.gettimeofday () -. t0) 1e-9;
                 hb_rss_kb = rss_or_minus Procstat.rss_kb;
               })
        in
        (* Testing hooks, after each shipped unit: die by SIGKILL, leaving
           the stream without its done frame, or wedge silently — exactly
           what a real crash or hang looks like. *)
        let after () =
          if opts.inject_crash = index then Unix.kill (Unix.getpid ()) Sys.sigkill;
          if opts.inject_stall = index then
            while true do
              Unix.sleep 3600
            done
        in
        let units, events =
          stride job spec ~index ~workers ~period:(heartbeat_period opts) ~beat ~ship ~after
        in
        if opts.metrics then ship (counters_frame (Telemetry.counters ()));
        if opts.trace then
          ship
            (Obs_frame.telemetry_frame ~index ~epoch_unix_s:(Telemetry.epoch_unix_s ())
               (Telemetry.events ()));
        if opts.logs then ship (Obs_frame.logs_frame ~index (Log.events ()));
        ship
          (done_frame
             {
               s_units = units;
               s_events = events;
               s_wall = Unix.gettimeofday () -. t0;
               s_rss = rss_or_minus Procstat.peak_rss_kb;
             });
        0
      with e -> fail 3 (Printf.sprintf "%d: %s" index (Printexc.to_string e))))

let dispatch_worker job =
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = job.name ^ "-worker" then
    exit (worker_main job Sys.argv.(2))

let run_inline ?(obs = false) job spec =
  let parts = Array.make (job.units spec) None in
  let beat ~units ~events =
    if obs then
      ignore
        (roundtrip
           (Obs_frame.heartbeat_frame
              {
                Obs_frame.hb_index = 0;
                hb_events = events;
                hb_shards = units;
                hb_rate = 0.;
                hb_rss_kb = -1;
              }))
  in
  let ship f =
    match decode_frame job (roundtrip f) with
    | Ok (D_unit (u, p)) -> parts.(u) <- Some p
    | Ok _ -> failwith (job.name ^ " inline: frame round-trip failed")
    | Error e -> failwith (job.name ^ " inline: " ^ e)
  in
  ignore
    (stride job spec ~index:0 ~workers:1 ~period:(heartbeat_period default_opts) ~beat
       ~ship ~after:ignore);
  Array.map Option.get parts

(* ---------------- process pool ---------------- *)

(* OCaml signal numbers are its own portable negatives; name the common
   ones so a crash diagnostic reads "SIGKILL", not "signal -7". *)
let signal_name s =
  let names =
    [ (Sys.sigabrt, "SIGABRT"); (Sys.sigbus, "SIGBUS"); (Sys.sigfpe, "SIGFPE");
      (Sys.sighup, "SIGHUP"); (Sys.sigill, "SIGILL"); (Sys.sigint, "SIGINT");
      (Sys.sigkill, "SIGKILL"); (Sys.sigpipe, "SIGPIPE");
      (Sys.sigquit, "SIGQUIT"); (Sys.sigsegv, "SIGSEGV");
      (Sys.sigterm, "SIGTERM"); (Sys.sigstop, "SIGSTOP") ]
  in
  match List.assoc_opt s names with
  | Some n -> n
  | None -> Printf.sprintf "signal %d" s

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> "killed by " ^ signal_name s
  | Unix.WSTOPPED s -> "stopped by " ^ signal_name s

(* Per-worker drain state. [out_pending] holds bytes that do not yet
   form a complete frame; [err_pending] a partial stderr line. *)
type wstate = {
  w_index : int;
  w_pid : int;
  mutable out_fd : Unix.file_descr option;
  mutable err_fd : Unix.file_descr option;
  mutable out_pending : string;
  mutable err_pending : string;
  mutable frames_rev : Frame.t list;  (* analysis frames, newest first *)
  mutable got_done : bool;
  mutable failure : string option;
  mutable stalled : bool;
  mutable last_frame : float;  (* Unix time of the last decoded frame *)
  mutable status : Unix.process_status;
}

let note_failure w m = if w.failure = None then w.failure <- Some m

let close_fd = function
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

(* Spawn [workers] processes ([exe] with [argv i], stdin /dev/null),
   drain their frame streams and stderr lines concurrently from one
   select loop, and reap them in index order. [on_obs i f] consumes
   observability frames live; analysis frames stay in [frames_rev];
   stderr lines are re-emitted as "[w<i>] ...". With [stall_timeout], a
   worker whose stream stays silent past the deadline is marked
   stalled, reported through [on_stall] and SIGKILLed; any decoded frame
   resets its clock. *)
let spawn_and_drain ~name ~exe ~argv ~workers ~on_obs ~stall_timeout ~on_stall =
  (* A worker writing to a coordinator that gave up must see EPIPE, not
     die silently by signal. Absent on non-Unix; harmless to skip. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let c_workers = Telemetry.counter (name ^ ".workers") in
  let c_frames = Telemetry.counter (name ^ ".frames") in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let states =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Array.init workers (fun i ->
            (* cloexec keeps earlier workers' pipe ends out of later
               workers, so EOF on a pipe means that worker is gone. *)
            let out_r, out_w = Unix.pipe ~cloexec:true () in
            let err_r, err_w = Unix.pipe ~cloexec:true () in
            let pid = Unix.create_process exe (argv i) devnull out_w err_w in
            Telemetry.bump c_workers;
            Unix.close out_w;
            Unix.close err_w;
            {
              w_index = i;
              w_pid = pid;
              out_fd = Some out_r;
              err_fd = Some err_r;
              out_pending = "";
              err_pending = "";
              frames_rev = [];
              got_done = false;
              failure = None;
              stalled = false;
              last_frame = Unix.gettimeofday ();
              status = Unix.WEXITED 0;
            }))
  in
  let close_out w =
    close_fd w.out_fd;
    w.out_fd <- None
  in
  (* A Truncated result means "wait for more bytes"; real truncation is
     diagnosed at EOF. Any other decode error poisons the stream. *)
  let rec drain_frames w pos =
    match Frame.decode w.out_pending pos with
    | Ok (f, next) ->
      w.last_frame <- Unix.gettimeofday ();
      Telemetry.bump c_frames;
      if f.kind = kind_done then w.got_done <- true;
      if Obs_frame.is_obs f then on_obs w.w_index f
      else w.frames_rev <- f :: w.frames_rev;
      drain_frames w next
    | Error Frame.Truncated ->
      w.out_pending <- String.sub w.out_pending pos (String.length w.out_pending - pos)
    | Error e ->
      note_failure w (Frame.error_to_string e);
      close_out w
  in
  let err_line w line = Printf.eprintf "[w%d] %s\n%!" w.w_index line in
  let rec err_lines w = function
    | [ partial ] -> w.err_pending <- partial
    | line :: rest ->
      err_line w line;
      err_lines w rest
    | [] -> ()
  in
  let chunk = 65536 in
  let buf = Bytes.create chunk in
  let read fd ~eof ~data =
    match Unix.read fd buf 0 chunk with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | 0 -> eof ()
    | n -> data (Bytes.sub_string buf 0 n)
  in
  let read_out w fd =
    read fd
      ~eof:(fun () ->
        close_out w;
        if not w.got_done then
          note_failure w
            (if w.out_pending = "" then "stream ended before the final frame"
             else "frame truncated"))
      ~data:(fun s ->
        w.out_pending <- w.out_pending ^ s;
        drain_frames w 0)
  in
  let read_err w fd =
    read fd
      ~eof:(fun () ->
        if w.err_pending <> "" then err_line w w.err_pending;
        close_fd w.err_fd;
        w.err_fd <- None)
      ~data:(fun s -> err_lines w (String.split_on_char '\n' (w.err_pending ^ s)))
  in
  (* A worker is on the clock while its frame stream is open and its
     done frame has not arrived. *)
  let on_clock w = w.out_fd <> None && (not w.got_done) && not w.stalled in
  let check_stalls limit =
    let now = Unix.gettimeofday () in
    Array.iter
      (fun w ->
        if on_clock w && now -. w.last_frame > limit then begin
          w.stalled <- true;
          note_failure w (Printf.sprintf "missed heartbeat deadline (%.3gs)" limit);
          on_stall w.w_index w.w_pid;
          (* Wedged: reclaim it rather than wait on a silent pipe. *)
          try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ()
        end)
      states
  in
  let select_timeout () =
    match stall_timeout with
    | None -> -1.
    | Some limit ->
      let now = Unix.gettimeofday () in
      Array.fold_left
        (fun acc w ->
          if on_clock w then
            Float.min acc (Float.max ((w.last_frame +. limit) -. now) 0.01)
          else acc)
        1.0 states
  in
  let rec loop () =
    let fds =
      Array.fold_left
        (fun acc w -> Option.to_list w.out_fd @ Option.to_list w.err_fd @ acc)
        [] states
    in
    if fds <> [] then begin
      (match Unix.select fds [] [] (select_timeout ()) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        let ready_fd = function
          | Some fd when List.memq fd ready -> Some fd
          | _ -> None
        in
        Array.iter
          (fun w ->
            Option.iter (read_out w) (ready_fd w.out_fd);
            Option.iter (read_err w) (ready_fd w.err_fd))
          states);
      Option.iter check_stalls stall_timeout;
      loop ()
    end
  in
  loop ();
  Array.iter (fun w -> w.status <- snd (Unix.waitpid [] w.w_pid)) states;
  states

(* ---------------- coordinator ---------------- *)

(* Live heartbeat board behind the stderr progress line: one line,
   rewritten in place, aggregating the latest beat from every worker. *)
type board = {
  b_events : int array;
  b_rate : float array;
  b_rss : int array;
  mutable b_shown : bool;
}

let progress_update name b (hb : Obs_frame.heartbeat) =
  if hb.hb_index >= 0 && hb.hb_index < Array.length b.b_events then begin
    b.b_events.(hb.hb_index) <- hb.hb_events;
    b.b_rate.(hb.hb_index) <- hb.hb_rate;
    b.b_rss.(hb.hb_index) <- Int.max hb.hb_rss_kb 0;
    b.b_shown <- true;
    Printf.eprintf "\r[%s] %.2fM events  %.2fM ev/s  workers-rss %d MB   %!" name
      (float_of_int (Array.fold_left ( + ) 0 b.b_events) /. 1e6)
      (Array.fold_left ( +. ) 0. b.b_rate /. 1e6)
      (Array.fold_left ( + ) 0 b.b_rss / 1024)
  end

let progress_finish b =
  if b.b_shown then Printf.eprintf "\n%!";
  b.b_shown <- false

(* Re-emit a worker's log events with worker attribution: one
   totally-ordered JSONL stream for the whole job. *)
let reemit_logs i events =
  List.iter
    (fun (ev : Log.event) ->
      Log.event ev.ev_level ev.ev_name
        (List.filter
           (fun (k, _) -> k <> "worker" && k <> "w_seq" && k <> "w_t_us")
           ev.fields
        @ [ ("worker", Log.I i); ("w_seq", Log.I ev.seq); ("w_t_us", Log.F ev.t_us) ]))
    events

let run job ~exe ?(opts = default_opts) ~workers spec =
  let n = job.units spec in
  if workers < 1 then
    invalid_arg (Printf.sprintf "Job.run: workers = %d (want >= 1)" workers);
  let ev suffix = job.name ^ "." ^ suffix in
  let board =
    {
      b_events = Array.make workers 0;
      b_rate = Array.make workers 0.;
      b_rss = Array.make workers 0;
      b_shown = false;
    }
  in
  let spans = ref [] in
  let on_obs windex f =
    match Obs_frame.decode f with
    | Ok (Obs_frame.Heartbeat hb) -> if opts.progress then progress_update job.name board hb
    | Ok (Obs_frame.Telemetry (i, epoch, events)) -> spans := (i, epoch, events) :: !spans
    | Ok (Obs_frame.Logs (i, events)) -> reemit_logs i events
    | Error m -> Log.warn (ev "bad_obs_frame") [ ("worker", Log.I windex); ("reason", Log.S m) ]
  in
  let on_stall index pid =
    progress_finish board;
    Log.error (ev "worker_stalled")
      [
        ("worker", Log.I index);
        ("pid", Log.I pid);
        ("deadline_s", Log.F opts.stall_timeout_s);
      ]
  in
  let states =
    Telemetry.span ~name:(ev "drain") (fun () ->
        spawn_and_drain ~name:job.name ~exe
          ~argv:(fun i ->
            [| exe; job.name ^ "-worker"; envelope job ~opts ~workers spec ~index:i |])
          ~workers ~on_obs
          ~stall_timeout:
            (if opts.stall_timeout_s > 0. then Some opts.stall_timeout_s else None)
          ~on_stall)
  in
  progress_finish board;
  let parts = Array.make n None in
  let counters = ref [] in
  (* Fold one worker's analysis frames into [parts] and return its
     report row plus its failure, if any: the first malformed or
     inconsistent frame fails the worker exactly like a crash. *)
  let absorb w =
    let summary = ref { s_units = 0; s_events = 0; s_wall = 0.; s_rss = -1 } in
    let err = ref None in
    let note m = if !err = None then err := Some m in
    List.iter
      (fun f ->
        if !err = None then
          match decode_frame job f with
          | Error m -> note m
          | Ok (D_unit (u, p)) ->
            if u < 0 || u >= n then note (Printf.sprintf "unit %d out of range" u)
            else if parts.(u) <> None then note (Printf.sprintf "unit %d shipped twice" u)
            else parts.(u) <- Some p
          | Ok (D_counters cs) ->
            List.iter (fun (k, v) -> Telemetry.add (Telemetry.counter (ev "rollup." ^ k)) v) cs;
            counters := (w.w_index, cs) :: !counters
          | Ok (D_done s) ->
            summary := s;
            Log.info (ev "worker_done")
              [
                ("worker", Log.I w.w_index);
                ("pid", Log.I w.w_pid);
                ("units", Log.I s.s_units);
                ("events", Log.I s.s_events);
                ("wall_s", Log.F s.s_wall);
                ("rss_kb", Log.I s.s_rss);
              ])
      (List.rev w.frames_rev);
    let status = status_to_string w.status in
    (* A broken stream or exit outranks a bad frame as the reason. *)
    let failure =
      if w.status = Unix.WEXITED 0 && w.failure = None && not w.stalled then !err
      else Some (Option.value w.failure ~default:status)
    in
    Option.iter
      (fun reason ->
        (* Stalled workers were logged at deadline time. *)
        if not w.stalled then
          Log.error (ev "worker_died")
            [
              ("worker", Log.I w.w_index);
              ("pid", Log.I w.w_pid);
              ("status", Log.S status);
              ("reason", Log.S reason);
            ])
      failure;
    let s = !summary in
    ( {
        Manifest.wk_index = w.w_index;
        wk_status = status;
        wk_events = s.s_events;
        wk_shards = s.s_units;
        wk_wall_s = s.s_wall;
        wk_rss_kb = s.s_rss;
        wk_stalled = w.stalled;
      },
      Option.map
        (Printf.sprintf "worker %d (pid %d) %s: %s, %s" w.w_index w.w_pid
           (if w.stalled then "stalled" else "died")
           status)
        failure )
  in
  let reports, failures =
    Telemetry.span ~name:(ev "absorb") (fun () ->
        List.split (Array.to_list (Array.map absorb states)))
  in
  let obs =
    {
      o_workers = reports;
      o_spans = List.sort compare !spans;
      o_counters = List.sort compare !counters;
    }
  in
  match
    (List.filter_map Fun.id failures, List.filter (fun u -> parts.(u) = None) (List.init n Fun.id))
  with
  | (_ :: _ as failures), _ -> Error (String.concat "; " failures)
  | [], [] -> Ok (Array.map Option.get parts, obs)
  | [], missing ->
    Error
      (Printf.sprintf "missing unit%s %s"
         (if List.length missing > 1 then "s" else "")
         (String.concat ", " (List.map string_of_int missing)))

let trace_processes obs =
  let coord_epoch = Telemetry.epoch_unix_s () in
  {
    Telemetry.pr_label = "coordinator";
    pr_events = Telemetry.events ();
    pr_counters = Telemetry.counters ();
    pr_offset_us = 0.;
  }
  :: List.map
       (fun (i, epoch, events) ->
         {
           Telemetry.pr_label = Printf.sprintf "worker %d" i;
           pr_events = events;
           pr_counters = Option.value ~default:[] (List.assoc_opt i obs.o_counters);
           pr_offset_us = (epoch -. coord_epoch) *. 1e6;
         })
       obs.o_spans
