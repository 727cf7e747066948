(** What one benchmark run reports: whether every output checked out,
    how many operations it attempted and how many failed, and its metrics
    by name. *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  notes : string list;  (** seed-derived inputs, printed before the result *)
}

(** The end-to-end metrics of a timed run, scaled to the reference
    machine speed ({!Clock.scale}); the raw figures follow from the scale
    recorded in the notes. *)
let end_to_end ~setup_s ~analyze_s ~step_us ~rates =
  let k = Clock.scale () in
  ( [
      ("setup_s", setup_s *. k);
      ("peak_rss_mb", Clock.peak_rss_mb ());
      ("analyze_s_p50", Clock.percentile 0.5 analyze_s *. k);
      ("analyze_s_p90", Clock.percentile 0.9 analyze_s *. k);
      ("debug_step_us_p50", Clock.percentile 0.5 step_us *. k);
      ("triage_dumps_per_s", Clock.percentile 0.5 rates /. k);
    ],
    Printf.sprintf "speed_scale=%.4f" k )

(** A correctness failure of the traced run: it reports no per-layer
    numbers for work that differs from the untraced run's. *)
exception Diverged of string

let diverged fmt = Printf.ksprintf (fun s -> raise (Diverged s)) fmt

(** Run [f] in a span-recording scope. *)
let traced f =
  Span.reset ();
  Pipeline.reset ();
  Span.enabled := true;
  Fun.protect ~finally:(fun () -> Span.enabled := false) f

(** The per-layer metrics every traced pass reports, from its spans and
    the layered pipeline's counters.  [state_queries] is the number of
    debugger state queries the [debugger.state_at] spans made. *)
let layer_metrics ~solver_queries ~state_queries =
  let self = Span.self_seconds () in
  let n = Pipeline.counts in
  [
    ("search.s", self "search.search");
    ("search.nodes", float_of_int n.nodes);
    ("search.candidates", float_of_int n.candidates);
    ("search.pruned", float_of_int n.pruned);
    ("search.reversed", float_of_int n.reversed);
    ("search.slice_skipped", float_of_int n.slice_skipped);
    ("search.suffixes", float_of_int n.suffixes);
    ("solver.queries", float_of_int solver_queries);
    ("replay.s", self "replay.replay");
    ("replay.runs", float_of_int n.replays);
    ("rootcause.s", self "rootcause.classify");
    ("coredump_io.decode_s", self "coredump_io.decode");
    ("backstep.make_ctx_s", self "backstep.make_ctx");
    ("report.render_s", self "report.render");
    ("debugger.open_s", self "debugger.open");
    ( "debugger.state_at_us",
      self "debugger.state_at" *. 1e6 /. float_of_int (max 1 state_queries) );
    ("gc.minor_words", !Span.minor_words);
    ("gc.major_collections", float_of_int !Span.major_collections);
  ]

(** Run the timed loop until [seconds] have passed and at least [min]
    samples were taken.  [sample i] runs one sample, after the machine
    speed probe. *)
let loop ~seconds ~min sample =
  let t_end = Clock.now () +. seconds in
  let rec go i =
    if i < min || Clock.now () < t_end then begin
      Clock.run_probe ();
      sample i;
      go (i + 1)
    end
  in
  go 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(** Run [f] on [reps] fresh directories under [dir] and return the last
    result and its directory, with the median set-up time.  Earlier set-ups stay on disk
    until the run ends: deleting thousands of files between repetitions
    slows the file creation that follows. *)
let setup ~reps ~dir f =
  let rec go i times =
    let rep = Filename.concat dir (Printf.sprintf "setup-%d" i) in
    mkdir_p rep;
    let v, dt = Clock.time (fun () -> f rep) in
    if i + 1 < reps then go (i + 1) (dt :: times)
    else ((v, rep), Clock.median (dt :: times))
  in
  go 0 []
