(* The `res` command-line tool: run MiniIR programs, capture coredumps,
   and drive reverse execution synthesis over them.

     res validate prog.res            check a program is well-formed
     res run prog.res -o core.txt     run; save the coredump on a crash
     res analyze prog.res core.txt    synthesize, replay, classify
     res replay prog.res core.txt     verify deterministic reproduction
     res debug prog.res core.txt      interactive time-travel debugger
     res hwdiag prog.res core.txt     software bug or hardware error?
     res exploit prog.res core.txt    exploitability rating
     res workload NAME -o core.txt    generate a built-in buggy workload
     res triage prog.res --dir D -j4  batch-triage a directory of coredumps
     res triage-demo                  run the triaging comparison corpus
     res selftest                     fault-injection self-test of the pipeline
     res serve --socket S --spool D   long-running triage daemon
     res client submit prog core      submit to a running daemon

   Exit codes: 0 analysis complete, 1 internal error or invalid usage,
   2 partial analysis (search truncated), 3 bad coredump, 4 budget or
   deadline exhausted, 5 submission rejected by a daemon (overload,
   breaker, or drain). *)

open Cmdliner

(* Distinct exit codes so orchestrators can triage failures without
   parsing output. *)
let exit_ok = 0
let exit_internal = 1
let exit_partial = 2
let exit_bad_dump = 3
let exit_exhausted = 4

let exit_rejected = 5
(** a triage daemon refused the submission with a typed rejection *)

(** Abort the command with a code; caught at the top level (never a raw
    OCaml backtrace). *)
exception Die of int * string

(** The bytes of an input file; an unreadable one (a directory, say)
    exits {!exit_internal} with one line naming it once. *)
let read_input path =
  match Res_vm.Coredump_io.read_file path with
  | Ok s -> s
  | Error err ->
      let why =
        match err with
        | Res_vm.Coredump_io.Unreadable msg -> msg  (* "PATH: reason" *)
        | err -> Fmt.str "%s: %s" path (Res_vm.Coredump_io.dump_error_to_string err)
      in
      raise (Die (exit_internal, "cannot read " ^ why))

let load_prog path =
  match Res_ir.Parser.parse_result (read_input path) with
  | Ok prog -> (
      match Res_ir.Validate.check prog with
      | [] -> Ok prog
      | errs ->
          Error
            (Fmt.str "invalid program:@.%a"
               Fmt.(list ~sep:cut Res_ir.Validate.pp_error)
               errs))
  | Error msg -> Error msg

let or_die = function
  | Ok v -> v
  | Error msg -> raise (Die (exit_internal, msg))

(** Load a coredump through the hardened loader: classified dump damage
    exits with {!exit_bad_dump}; a salvaged dump analyzes with a warning. *)
let load_dump ?(salvage = false) path =
  match Res_vm.Coredump_io.load_result ~salvage path with
  | Ok { Res_vm.Coredump_io.dump; salvaged = None } -> dump
  | Ok { Res_vm.Coredump_io.dump; salvaged = Some damage } ->
      Fmt.epr "warning: coredump damaged (%a); salvaged the intact prefix@."
        Res_vm.Coredump_io.pp_dump_error damage;
      dump
  | Error err ->
      raise
        (Die (exit_bad_dump, Res_vm.Coredump_io.dump_error_to_string err))

(* --- common arguments --- *)

let prog_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PROG" ~doc:"MiniIR program file (textual assembly).")

let dump_arg pos_idx =
  Arg.(
    required
    & pos pos_idx (some file) None
    & info [] ~docv:"CORE" ~doc:"Coredump file produced by $(b,res run).")

let depth_arg =
  Arg.(
    value & opt int 8
    & info [ "depth"; "d" ] ~docv:"N" ~doc:"Maximum suffix length in segments.")

let breadcrumbs_arg =
  Arg.(
    value & flag
    & info [ "breadcrumbs"; "b" ]
        ~doc:"Prune backward search with the coredump's LBR breadcrumbs.")

(* --- run --- *)

let run_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to save the coredump.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Scheduler seed (random interleaving).")
  in
  let schedule =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "schedule" ] ~docv:"T0,T1,..."
          ~doc:"Fixed thread schedule (tids at successive boundaries).")
  in
  let inputs =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "inputs" ] ~docv:"V0,V1,..."
          ~doc:"Scripted input values, consumed in program order.")
  in
  let max_steps =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-steps" ] ~docv:"N" ~doc:"Instruction budget.")
  in
  let run prog_path out seed schedule inputs max_steps =
    let prog = or_die (load_prog prog_path) in
    let config =
      {
        (Res_vm.Exec.default_config ()) with
        sched =
          Res_vm.Sched.create
            (match schedule with
            | Some tids -> Res_vm.Sched.Fixed tids
            | None -> Res_vm.Sched.Seeded seed);
        oracle =
          (match inputs with
          | Some vs -> Res_vm.Oracle.scripted vs
          | None -> Res_vm.Oracle.seeded ~seed);
        max_steps;
      }
    in
    match Res_vm.Exec.run_to_coredump ~config prog with
    | Some dump, _ ->
        Fmt.pr "%a@." Res_vm.Crash.pp dump.Res_vm.Coredump.crash;
        (match out with
        | Some path ->
            Res_core.Ioshim.write_file_atomic path
              (Res_vm.Coredump_io.to_string dump);
            Fmt.pr "coredump written to %s@." path
        | None -> Fmt.pr "%s@." (Res_vm.Coredump.to_string dump));
        exit_ok
    | None, r -> (
        match r.Res_vm.Exec.outcome with
        | Res_vm.Exec.Exited ->
            Fmt.pr "program exited normally (no coredump)@.";
            exit_ok
        | Res_vm.Exec.Out_of_fuel ->
            Fmt.pr "instruction budget exhausted@.";
            exit_exhausted
        | Res_vm.Exec.Crashed _ -> assert false)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a program and capture its coredump on a crash.")
    Term.(const run $ prog_arg $ out $ seed $ schedule $ inputs $ max_steps)

(* --- validate --- *)

let validate_cmd =
  let run prog_path =
    let prog = or_die (load_prog prog_path) in
    Fmt.pr "%s: %d function(s), %d global(s), %d instruction(s) — OK@."
      prog_path
      (List.length prog.Res_ir.Prog.funcs)
      (List.length prog.Res_ir.Prog.globals)
      (Res_ir.Prog.size prog);
    exit_ok
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Parse and validate a MiniIR program.")
    Term.(const run $ prog_arg)

(* --- analyze --- *)

let salvage_arg =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "If the coredump is damaged, analyze the intact prefix instead of \
           refusing it.")

(** Map an analysis outcome to the documented exit code. *)
let outcome_code = function
  | Res_core.Res.Complete _ -> exit_ok
  | Res_core.Res.Partial
      ((Res_core.Res.Deadline_exceeded | Res_core.Res.Fuel_exhausted), _) ->
      exit_exhausted
  | Res_core.Res.Partial (Res_core.Res.Search_truncated, _) -> exit_partial
  | Res_core.Res.Failed (Res_core.Res.Bad_dump _) -> exit_bad_dump
  | Res_core.Res.Failed (Res_core.Res.Internal _) -> exit_internal

(** Sort reports deterministically before printing, so two runs that
    found the same causes print identically regardless of emission
    order. *)
let sorted_outcome = Res_core.Report.sorted_outcome

(** Print an outcome (sorted) and return its exit code. *)
let report_outcome ctx outcome =
  let outcome = sorted_outcome ctx outcome in
  Fmt.pr "%s@." (Res_core.Report.outcome_to_string ctx outcome);
  outcome_code outcome

(** The budget the [--deadline] and [--fuel] flags ask for. *)
let mk_budget deadline fuel =
  match (deadline, fuel) with
  | None, None -> None
  | _ -> Some (Res_core.Budget.create ?wall_seconds:deadline ?fuel ())

(* --- worker-pool flags (shared by triage and serve) --- *)

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker count: how many coredumps are analyzed at once, one per \
           worker.  0 (the default) picks the verb's default: 1 for \
           $(b,triage), 2 for $(b,serve).")

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("auto", None); ("domains", Some Res_parallel.Pool.Domains);
                  ("fork", Some Res_parallel.Pool.Forked) ])
        None
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Worker backend: $(b,domains) (shared-memory OCaml domains), \
           $(b,fork) (isolated processes; survives worker death), or \
           $(b,auto) (domains on multicore, fork otherwise; the \
           RES_PARALLEL_BACKEND environment variable overrides).")

(* --- result-cache flags (shared by triage, serve, coordinate) --- *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Content-addressed triage result cache.  Verdicts are keyed by the \
           exact (program bytes, dump bytes, budgets and analysis config), \
           so re-triaging a corpus recomputes only unseen work and produces \
           byte-identical output.  Damaged or torn entries are quarantined \
           and transparently recomputed; a missing or unwritable directory \
           just means every lookup misses.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ignore $(b,--cache-dir): force cold analyses.")

(** Open the result cache the flags ask for ([None] = caching off). *)
let open_cache cache_dir no_cache =
  match cache_dir with
  | Some d when not no_cache -> Some (Res_cache.Cache.openr d)
  | _ -> None

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print one machine-parsable key=value line to stderr: wall-clock, \
           nodes expanded, nodes pruned, solver queries, workers used.")

(** The [--stats] line.  Solver queries are counted from this process's
    own (domain-local) counter delta plus what workers reported over the
    wire, so the total is meaningful under every backend.  [restarts] is
    how many times the pool's supervisor respawned a dead worker — a
    healthy run prints 0, so a nonzero value is a cheap flake signal.
    [reverse] is the (reversed, slice_skipped) pair of reverse-execution
    counts, and [forked] the workers a batch forked, each printed only by
    the callers that measure them. *)
let print_stats ?reverse ?forked ~wall_s ~nodes ~pruned ~queries ~workers
    ~restarts () =
  let reverse =
    match reverse with
    | Some (reversed, slice_skipped) ->
        Fmt.str " reversed=%d slice_skipped=%d" reversed slice_skipped
    | None -> ""
  in
  let forked =
    match forked with Some n -> Fmt.str " forked=%d" n | None -> ""
  in
  Fmt.epr
    "wall_s=%.3f nodes=%d pruned=%d%s solver_queries=%d workers=%d \
     restarts=%d%s@."
    wall_s nodes pruned reverse queries workers restarts forked

let analyze_cmd =
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock deadline for the whole analysis; past it the best \
             partial result so far is reported (exit code 4).")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Search-node budget for the whole analysis (exit code 4 when \
                exhausted).")
  in
  let attempts =
    Arg.(
      value & opt int 3
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Retry-with-escalation attempts: each retry doubles the search \
             node budget before settling for a partial result.")
  in
  let no_static_prune =
    Arg.(
      value & flag
      & info [ "no-static-prune" ]
          ~doc:
            "Disable the static chain-refutation pruner (the reports must \
             not change, only the amount of search work).")
  in
  let no_reverse_exec =
    Arg.(
      value & flag
      & info [ "no-reverse-exec" ]
          ~doc:
            "Disable the concrete reverse-execution fast path for \
             invertible segments (the reports must not change, only the \
             amount of symbolic execution and solver work).")
  in
  let run prog_path dump_path depth breadcrumbs deadline fuel attempts salvage
      no_static_prune no_reverse_exec stats =
    let prog = or_die (load_prog prog_path) in
    let dump = load_dump ~salvage dump_path in
    let ctx = Res_core.Backstep.make_ctx prog in
    let config =
      {
        Res_core.Res.default_config with
        search =
          {
            Res_core.Search.default_config with
            max_segments = depth;
            max_nodes = 30_000;
            use_breadcrumbs = breadcrumbs;
            static_prune = not no_static_prune;
            reverse_exec = not no_reverse_exec;
          };
        max_attempts = max 1 attempts;
      }
    in
    let budget = mk_budget deadline fuel in
    let t0 = Unix.gettimeofday () in
    let q0 = Res_solver.Solver.queries () in
    let outcome = Res_core.Res.analyze ~config ?budget ctx dump in
    if stats then begin
      let a = Res_core.Res.analysis outcome in
      print_stats
        ~reverse:(a.Res_core.Res.nodes_reversed, a.Res_core.Res.slice_skipped)
        ~wall_s:(Unix.gettimeofday () -. t0)
        ~nodes:a.Res_core.Res.nodes_expanded
        ~pruned:a.Res_core.Res.nodes_pruned
        ~queries:(Res_solver.Solver.queries () - q0)
        ~workers:1 ~restarts:0 ()
    end;
    report_outcome ctx outcome
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Synthesize execution suffixes for a coredump, replay them, and \
          classify the root cause.")
    Term.(
      const run $ prog_arg $ dump_arg 1 $ depth_arg $ breadcrumbs_arg
      $ deadline $ fuel $ attempts $ salvage_arg $ no_static_prune
      $ no_reverse_exec $ stats_arg)

(* --- replay --- *)

let replay_cmd =
  let times =
    Arg.(
      value & opt int 10
      & info [ "times"; "n" ] ~docv:"N" ~doc:"How many times to replay.")
  in
  let run prog_path dump_path depth times =
    let prog = or_die (load_prog prog_path) in
    let dump = load_dump dump_path in
    let ctx = Res_core.Backstep.make_ctx prog in
    let result =
      Res_core.Search.search
        ~config:{ Res_core.Search.default_config with max_segments = depth }
        ctx dump
    in
    match result.Res_core.Search.suffixes with
    | [] ->
        Fmt.pr "no feasible suffix found (try a larger --depth)@.";
        exit_partial
    | suffix :: _ ->
        Fmt.pr "%a@." Res_core.Suffix.pp suffix;
        let ok, verdicts =
          Res_core.Replay.replay_deterministically ~times ctx suffix dump
        in
        let exact =
          List.length (List.filter (fun v -> v.Res_core.Replay.reproduced) verdicts)
        in
        Fmt.pr "replayed %d times: %d exact coredump matches%s@." times exact
          (if ok then " — deterministic" else "");
        exit_ok
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Synthesize a suffix and replay it repeatedly, verifying exact \
             reproduction.")
    Term.(const run $ prog_arg $ dump_arg 1 $ depth_arg $ times)

(* --- debug --- *)

let debug_cmd =
  let snapshot_every =
    Arg.(
      value & opt int 64
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Snapshot-index interval in instructions; 0 or less disables \
             the index, like $(b,--no-snapshot-index).")
  in
  let no_index =
    Arg.(
      value & flag
      & info [ "no-snapshot-index" ]
          ~doc:
            "Disable the snapshot index: every state query replays from \
             step 0.  Same code path and same transcripts, strictly more \
             re-execution — the baseline bench E20 measures against.")
  in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Run newline-separated commands from $(docv) instead of an \
             interactive session; the deterministic transcript goes to \
             stdout and assert failures set the exit code.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print snapshot-index statistics to stderr when the session \
             ends (kept off stdout so transcripts stay comparable across \
             intervals).")
  in
  let run prog_path dump_path depth snapshot_every no_index script stats =
    let prog = or_die (load_prog prog_path) in
    let dump = load_dump dump_path in
    let ctx = Res_core.Backstep.make_ctx prog in
    let result =
      Res_core.Search.search
        ~config:{ Res_core.Search.default_config with max_segments = depth }
        ctx dump
    in
    let snapshot_every = if no_index then 0 else snapshot_every in
    let dbg =
      match
        Res_core.Debugger.start_first ~snapshot_every ctx
          result.Res_core.Search.suffixes dump
      with
      | Some (_, dbg) -> dbg
      | None ->
          raise
            (Die
               ( exit_partial,
                 "no suffix reproduces the coredump (try a larger --depth)" ))
    in
    let session = Res_debug.Session.create dbg in
    let code =
      match script with
      | Some path ->
          let r = Res_debug.Script.run_script session (read_input path) in
          print_string r.Res_debug.Script.transcript;
          r.Res_debug.Script.exit_code
      | None -> Res_debug.Script.repl session
    in
    if stats then begin
      let s = Res_core.Debugger.stats dbg in
      Fmt.epr
        "index: interval %d, %d snapshot restores, %d window restores, %d \
         instructions re-executed, %d transition probes@."
        (Res_core.Debugger.snapshot_every dbg)
        s.snapshot_restores s.window_restores s.replayed s.probes
    end;
    code
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:
         "Time-travel debugger over a synthesized suffix: step and \
          reverse-step, continue in both directions, pc breakpoints, value \
          watchpoints, and binary-searched transition watchpoints — a step \
          in either direction replays amortized O(1) instructions via the \
          snapshot index.")
    Term.(
      const run $ prog_arg $ dump_arg 1 $ depth_arg $ snapshot_every
      $ no_index $ script $ stats)

(* --- hwdiag --- *)

let hwdiag_cmd =
  let run prog_path dump_path =
    let prog = or_die (load_prog prog_path) in
    let dump = load_dump dump_path in
    let verdict = Res_usecases.Hwdiag.diagnose prog dump in
    Fmt.pr "%a@." Res_usecases.Hwdiag.pp_verdict verdict;
    (match verdict with
    | Res_usecases.Hwdiag.Software r ->
        Fmt.pr "reconstructed execution:@.%a@." Res_core.Suffix.pp
          r.Res_core.Res.suffix
    | _ -> ());
    exit_ok
  in
  Cmd.v
    (Cmd.info "hwdiag"
       ~doc:"Decide whether a coredump stems from a software bug or a likely \
             hardware error (memory/CPU).")
    Term.(const run $ prog_arg $ dump_arg 1)

(* --- exploit --- *)

let exploit_cmd =
  let run prog_path dump_path =
    let prog = or_die (load_prog prog_path) in
    let dump = load_dump dump_path in
    let e = Res_usecases.Exploit.classify_dump prog dump in
    let h = Res_baselines.Exploitable_heuristic.rate prog dump in
    Fmt.pr "RES taint analysis : %s (address tainted: %b, value tainted: %b)@."
      (Res_usecases.Exploit.rating_name e.Res_usecases.Exploit.rating)
      e.Res_usecases.Exploit.tainted_addr e.Res_usecases.Exploit.tainted_value;
    Fmt.pr "!exploitable-style : %s@."
      (Res_baselines.Exploitable_heuristic.rating_name h);
    exit_ok
  in
  Cmd.v
    (Cmd.info "exploit"
       ~doc:"Rate a failure's exploitability by tracking attacker-controlled \
             inputs through the synthesized suffix.")
    Term.(const run $ prog_arg $ dump_arg 1)

(* --- fuzz --- *)

let fuzz_cmd =
  let run seed runs fmt smoke corpus =
    let runs = if smoke then min runs 300 else runs in
    let only = match fmt with None -> [] | Some f -> [ f ] in
    List.iter
      (fun f ->
        if not (List.mem f Res_fuzz.Fuzz.format_names) then
          raise
            (Die
               ( exit_internal,
                 Fmt.str "unknown format %S; expected one of: %s" f
                   (String.concat ", " Res_fuzz.Fuzz.format_names) )))
      only;
    let r = Res_fuzz.Fuzz.run ?corpus_dir:corpus ~only ~seed ~runs () in
    Fmt.pr "%a@." Res_fuzz.Fuzz.pp_report r;
    if Res_fuzz.Fuzz.total_findings r > 0 then exit_internal else exit_ok
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "PRNG seed.  The whole campaign — every case byte and every \
             decision — is reproducible from it; the printed per-format \
             digest is the witness.")
  in
  let runs_arg =
    Arg.(
      value & opt int 10_000
      & info [ "runs" ] ~docv:"K"
          ~doc:
            "Random cases per format (pristine seeds and the hostile corpus \
             always run in addition).")
  in
  let fmt_arg =
    Arg.(
      value & opt (some string) None
      & info [ "format" ] ~docv:"F"
          ~doc:
            "Fuzz only this format: coredump, wire, protocol, cache, ir, \
             predicate, or command.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI smoke mode: cap the random stream at 300 cases per format.")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Write shrunk violation reproducers into this directory.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Deterministic structured fuzzing of every sealed codec and parser: \
          never an uncaught exception, never a hang, never silent acceptance \
          of damaged bytes.  Exits 1 if any contract violation is found.")
    Term.(const run $ seed_arg $ runs_arg $ fmt_arg $ smoke_arg $ corpus_arg)

(* --- workload --- *)

let workload_cmd =
  let wname =
    (* Exact names only: [Arg.enum] also takes a prefix, so [fig1] would
       pick fig1-overflow. *)
    let all = Res_workloads.Workloads.all in
    let name_of w = w.Res_workloads.Truth.w_name in
    let parse s =
      match List.find_opt (fun w -> String.equal (name_of w) s) all with
      | Some w -> Ok w
      | None ->
          Error
            (Fmt.str "invalid value '%s', expected %s" s
               (Arg.doc_alts ~quoted:true (List.map name_of all)))
    in
    let workload = Arg.conv' ~docv:"NAME" (parse, Fmt.using name_of Fmt.string) in
    Arg.(
      value
      & pos 0 (some workload) None
      & info [] ~docv:"NAME" ~doc:"Workload name; omit to list available ones.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to save the coredump.")
  in
  let prog_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "program" ] ~docv:"FILE" ~doc:"Where to save the program text.")
  in
  let run wname out prog_out =
    match wname with
    | None ->
        Fmt.pr "available workloads:@.";
        List.iter
          (fun w ->
            Fmt.pr "  %-26s %s@." w.Res_workloads.Truth.w_name
              w.Res_workloads.Truth.w_description)
          Res_workloads.Workloads.all;
        exit_ok
    | Some w ->
        let dump = Res_workloads.Truth.coredump w in
        Fmt.pr "%a@." Res_vm.Crash.pp dump.Res_vm.Coredump.crash;
        (match prog_out with
        | Some path ->
            let oc = open_out path in
            output_string oc (Res_ir.Prog.to_string w.Res_workloads.Truth.w_prog);
            close_out oc;
            Fmt.pr "program written to %s@." path
        | None -> ());
        (match out with
        | Some path ->
            Res_core.Ioshim.write_file_atomic path
              (Res_vm.Coredump_io.to_string dump);
            Fmt.pr "coredump written to %s@." path
        | None -> ());
        exit_ok
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Generate a coredump (and program) from a built-in buggy workload.")
    Term.(const run $ wname $ out $ prog_out)

(* --- triage (batch) --- *)

let corpus_dir_arg =
  Arg.(
    required
    & opt (some dir) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Directory of coredump files to triage (every regular file).")

(** The corpus [res triage] and [res coordinate] read: one batch item per
    regular file under [dir], all against [prog]; a file that does not
    load is an [Error] item, which becomes a [dump-error] row. *)
let load_corpus prog dir =
  let files = Sys.readdir dir in
  Array.sort compare files;
  let items =
    Array.to_list files
    |> List.filter_map (fun name ->
           let path = Filename.concat dir name in
           match (Unix.stat path).Unix.st_kind with
           | Unix.S_REG ->
               Some
                 {
                   Res_parallel.Batch.it_name = name;
                   it_prog = prog;
                   it_dump =
                     (match Res_vm.Coredump_io.load_result path with
                     | Ok { Res_vm.Coredump_io.dump; _ } -> Ok dump
                     | Error e ->
                         Error (Res_vm.Coredump_io.dump_error_to_string e));
                 }
           | _ -> None
           | exception Unix.Unix_error _ -> None)
  in
  if items = [] then
    raise (Die (exit_internal, Fmt.str "no coredump files under %s" dir));
  items

(** The [--stats] line of a corpus load: dump files read, and how many
    of them were decoded (each distinct content once). *)
let print_load_counts () =
  let c = Res_vm.Coredump_io.load_counts () in
  Fmt.epr "load files=%d decoded=%d@." c.Res_vm.Coredump_io.files
    c.Res_vm.Coredump_io.decoded

(** The [--stats] line of per-program statics ({!Res_core.Backstep.statics_of}):
    how many this process's analyses built, and how many they reused.
    Forked workers build and count theirs in their own processes, so
    only analyses run in this process show here. *)
let print_statics_counts () =
  let c = Res_core.Backstep.statics_counts () in
  Fmt.epr "statics built=%d reused=%d@." c.Res_core.Backstep.built
    c.Res_core.Backstep.reused

(* Per-dump budgets of [res triage] and [res coordinate] (which forwards
   them to the nodes). *)
let per_dump_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-dump wall-clock deadline; a dump that exceeds it degrades to \
           a partial row without starving the rest of the batch.")

let per_dump_fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N" ~doc:"Per-dump search-node budget.")

let triage_batch_cmd =
  let run prog_path dir jobs backend deadline fuel stats cache_dir no_cache =
    let items = load_corpus (or_die (load_prog prog_path)) dir in
    let cache = open_cache cache_dir no_cache in
    let t0 = Unix.gettimeofday () in
    let t =
      (* one batch per process: forked workers retire with it *)
      Res_parallel.Batch.run ?budget_wall:deadline ?budget_fuel:fuel
        ~jobs:(max 1 jobs) ?backend ~keep:false ?cache items
    in
    print_string t.Res_parallel.Batch.tsv;
    if stats then begin
      print_stats
        ~wall_s:(Unix.gettimeofday () -. t0)
        ~nodes:t.Res_parallel.Batch.worker_nodes
        ~pruned:t.Res_parallel.Batch.worker_pruned
        ~queries:t.Res_parallel.Batch.worker_queries
        ~workers:t.Res_parallel.Batch.workers
        ~restarts:t.Res_parallel.Batch.respawns
        ~forked:t.Res_parallel.Batch.forked ();
      Fmt.epr "batch duplicates=%d@." t.Res_parallel.Batch.duplicates;
      print_load_counts ();
      print_statics_counts ();
      match cache with
      | Some c ->
          Fmt.epr "cache cache_hits=%d %a@." t.Res_parallel.Batch.cache_hits
            Res_cache.Cache.pp_stats (Res_cache.Cache.stats c)
      | None -> ()
    end;
    (* a batch where literally every dump failed is a pipeline problem,
       not a triage result: make it visible to orchestrators *)
    if Res_parallel.Batch.all_failed t.Res_parallel.Batch.rows then exit_internal
    else exit_ok
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:
         "Batch-triage every coredump in a directory on a worker pool: \
          analyze each distinct dump once (byte-identical copies share its \
          verdict), bucket by root-cause signature, and print a \
          deterministic TSV (one $(b,dump) row per file, then $(b,cluster) \
          rows).  Unloadable or repeatedly-failing dumps degrade to \
          $(b,failed) rows; the batch always completes.")
    Term.(
      const run $ prog_arg $ corpus_dir_arg $ jobs_arg $ backend_arg
      $ per_dump_deadline_arg $ per_dump_fuel_arg $ stats_arg $ cache_dir_arg
      $ no_cache_arg)

(* --- triage demo --- *)

let triage_cmd =
  let per_bug =
    Arg.(
      value & opt int 4
      & info [ "per-bug" ] ~docv:"N" ~doc:"Reports generated per root cause.")
  in
  let run per_bug =
    let reports = Res_workloads.Corpus.generate ~n_per_bug:per_bug () in
    let as_triage =
      List.map
        (fun (r : Res_workloads.Corpus.report) ->
          ( {
              Res_usecases.Triage.t_id = r.r_id;
              t_prog = r.r_prog;
              t_dump = r.r_dump;
            },
            r.r_bug ))
        reports
    in
    let rs = List.map fst as_triage in
    let truth r = List.assq r as_triage in
    let show name key =
      let buckets = Res_usecases.Triage.bucket ~key rs in
      let q = Res_usecases.Triage.quality ~truth ~buckets rs in
      Fmt.pr "%-4s %a@." name Res_usecases.Triage.pp_quality q;
      List.iter
        (fun (k, l) -> Fmt.pr "  %-50s %d report(s)@." k (List.length l))
        buckets
    in
    show "WER" (fun (r : Res_usecases.Triage.report) ->
        Res_usecases.Triage.wer_key r.t_dump);
    show "RES" Res_usecases.Triage.res_key;
    exit_ok
  in
  Cmd.v
    (Cmd.info "triage-demo"
       ~doc:"Compare stack-hash (WER) and root-cause (RES) bucketing on the \
             built-in bug-report corpus.")
    Term.(const run $ per_bug)

(* --- serve / client --- *)

(* A daemon address: a Unix socket path, or TCP HOST:PORT. *)
let addr_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Res_serve.Client.parse_addr s)
  in
  Arg.conv (parse, Res_serve.Client.pp_addr)

let socket_arg =
  Arg.(
    value
    & opt addr_conv (Res_serve.Client.Unix_socket "res-serve.sock")
    & info [ "socket" ] ~docv:"ADDR"
        ~doc:
          "Address the daemon listens on: a Unix domain socket path, or \
           $(i,HOST):$(i,PORT) for TCP (port 0 binds an ephemeral port, \
           which $(b,--verbose) logs).")

let serve_cmd =
  let spool =
    Arg.(
      value
      & opt string "res-spool"
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Durable request spool.  Accepted submits are journaled here \
             before they are acknowledged, so a crashed daemon restarted on \
             the same spool loses nothing.  A coordinator's triage units \
             are not spooled: the coordinator retries them itself.")
  in
  let capacity =
    Arg.(
      value & opt int 8
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Admission queue bound; submissions beyond it are shed with a \
             typed overload rejection.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) (Some 30.)
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Default per-request wall-clock budget.")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N" ~doc:"Default per-request fuel budget.")
  in
  let grace =
    Arg.(
      value & opt float 5.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Wall clock past its deadline a worker may overstay before it is \
             SIGKILLed and the request reported as exhausted.")
  in
  let breaker_threshold =
    Arg.(
      value & opt int 3
      & info [ "breaker-threshold" ] ~docv:"N"
          ~doc:
            "Consecutive budget exhaustions of one workload signature that \
             trip its circuit breaker.")
  in
  let breaker_cooldown =
    Arg.(
      value & opt float 5.0
      & info [ "breaker-cooldown" ] ~docv:"SECONDS"
          ~doc:"Seconds a tripped breaker stays open before a half-open probe.")
  in
  let attempts =
    Arg.(
      value & opt int 3
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Analysis tries per request across worker deaths before the \
             daemon gives up and reports a synthetic failure.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log daemon events to stderr.")
  in
  let run socket spool jobs capacity deadline fuel grace breaker_threshold
      breaker_cooldown attempts verbose cache_dir no_cache =
    let cfg =
      {
        Res_serve.Server.default_config with
        Res_serve.Server.listen = socket;
        spool_dir = spool;
        cache_dir = (if no_cache then None else cache_dir);
        jobs = (if jobs <= 0 then 2 else jobs);
        capacity = max 1 capacity;
        default_deadline = deadline;
        default_fuel = fuel;
        hard_grace = grace;
        breaker_threshold;
        breaker_cooldown;
        worker_attempts = max 1 attempts;
        log = (if verbose then fun m -> Fmt.epr "res-serve: %s@." m else ignore);
      }
    in
    Res_serve.Server.run cfg;
    exit_ok
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resilient triage daemon: accept coredump submissions over \
          a Unix socket or TCP, analyze them in supervised forked workers, \
          shed load beyond $(b,--capacity), trip per-workload circuit \
          breakers, and recover accepted-but-unfinished requests from the \
          spool after a crash.  On TCP it is a cluster node that $(b,res \
          coordinate) shards across.  SIGTERM drains gracefully and exits 0.")
    Term.(
      const run $ socket_arg $ spool $ jobs_arg $ capacity $ deadline $ fuel
      $ grace $ breaker_threshold $ breaker_cooldown $ attempts $ verbose
      $ cache_dir_arg $ no_cache_arg)

(** Map a daemon reply to an exit code and print it; Result replies also
    print the report body. *)
let client_finish = function
  | Ok (Res_serve.Protocol.Result { rs_outcome; rs_timeout; rs_body; _ } as r)
    ->
      Fmt.pr "%a@." Res_serve.Protocol.pp_reply r;
      if rs_body <> "" then print_string rs_body;
      if rs_timeout then exit_exhausted
      else if String.equal rs_outcome "complete" then exit_ok
      else if String.equal rs_outcome "partial" then exit_partial
      else exit_internal
  | Ok
      (( Res_serve.Protocol.Rejected_overload _
       | Res_serve.Protocol.Rejected_breaker _
       | Res_serve.Protocol.Rejected_draining ) as r) ->
      Fmt.pr "%a@." Res_serve.Protocol.pp_reply r;
      exit_rejected
  | Ok (Res_serve.Protocol.Err msg) ->
      raise (Die (exit_internal, Fmt.str "daemon: %s" msg))
  | Ok r ->
      Fmt.pr "%a@." Res_serve.Protocol.pp_reply r;
      exit_ok
  | Error e ->
      raise (Die (exit_internal, Res_serve.Client.error_to_string e))

let client_cmd =
  let submit =
    let deadline_ms =
      Arg.(
        value
        & opt (some int) None
        & info [ "deadline-ms" ] ~docv:"MS"
            ~doc:"Per-request wall budget (overrides the daemon default).")
    in
    let fuel =
      Arg.(
        value
        & opt (some int) None
        & info [ "fuel" ] ~docv:"N"
            ~doc:"Per-request fuel budget (overrides the daemon default).")
    in
    let no_wait =
      Arg.(
        value & flag
        & info [ "no-wait" ]
            ~doc:
              "Return right after admission instead of waiting for the \
               result; poll later with $(b,res client fetch).")
    in
    let dump_arg =
      Arg.(
        required
        & pos 1 (some file) None
        & info [] ~docv:"COREDUMP" ~doc:"Coredump file to triage.")
    in
    let run socket prog_path dump_path deadline_ms fuel no_wait =
      let prog = read_input prog_path in
      let dump = read_input dump_path in
      if no_wait then
        match
          Res_serve.Client.submit socket ~prog ~dump ?deadline_ms ?fuel ()
        with
        | Ok (conn, reply) ->
            Res_serve.Client.close conn;
            client_finish (Ok reply)
        | Error e -> client_finish (Error e)
      else
        match
          Res_serve.Client.submit_wait ~timeout:3600. socket ~prog ~dump
            ?deadline_ms ?fuel ()
        with
        | Ok (_, Some result) -> client_finish (Ok result)
        | Ok (admission, None) -> client_finish (Ok admission)
        | Error e -> client_finish (Error e)
    in
    Cmd.v
      (Cmd.info "submit"
         ~doc:
           "Submit a (program, coredump) pair; by default wait for the \
            result.  Exit 5 on a typed rejection (overload, breaker, \
            draining).")
      Term.(
        const run $ socket_arg $ prog_arg $ dump_arg $ deadline_ms $ fuel
        $ no_wait)
  in
  let fetch =
    let id_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"ID" ~doc:"Request id from a previous submit.")
    in
    let run socket id = client_finish (Res_serve.Client.fetch socket id) in
    Cmd.v
      (Cmd.info "fetch"
         ~doc:"Fetch the result (or pending state) of an accepted request.")
      Term.(const run $ socket_arg $ id_arg)
  in
  let simple name doc call =
    Cmd.v (Cmd.info name ~doc)
      Term.(const (fun socket -> client_finish (call socket)) $ socket_arg)
  in
  Cmd.group
    (Cmd.info "client"
       ~doc:"Talk to a running triage daemon (submit, fetch, status, drain).")
    [
      submit;
      fetch;
      simple "status" "Print the daemon's counters."
        (fun s -> Res_serve.Client.status s);
      simple "drain"
        "Ask the daemon to stop accepting, finish in-flight work, and exit."
        (fun s -> Res_serve.Client.drain s);
      simple "ping" "Check the daemon is alive."
        (fun s -> Res_serve.Client.ping s);
    ]

(* --- cluster coordinator --- *)

let coordinate_cmd =
  let nodes_arg =
    Arg.(
      required
      & opt (some (list addr_conv)) None
      & info [ "nodes" ] ~docv:"HOST:PORT,..."
          ~doc:
            "Comma-separated addresses of the node daemons ($(b,res serve \
             --socket) $(i,HOST):$(i,PORT)) to shard across.")
  in
  let window =
    Arg.(
      value & opt int 2
      & info [ "window" ] ~docv:"N"
          ~doc:"In-flight units per node (match the node's $(b,--jobs)).")
  in
  let attempts =
    Arg.(
      value & opt int 8
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Exchange attempts per unit, across nodes, before it degrades \
             to a $(b,worker-lost) row.")
  in
  let unit_deadline =
    Arg.(
      value & opt float 60.0
      & info [ "unit-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall clock an exchange may stay open before the node is \
             charged a failure and the unit rescheduled.")
  in
  let connect_timeout =
    Arg.(
      value & opt float 5.0
      & info [ "connect-timeout" ] ~docv:"SECONDS"
          ~doc:"Deadline for establishing each node connection.")
  in
  let spot_check =
    Arg.(
      value & opt int 0
      & info [ "spot-check" ] ~docv:"K"
          ~doc:
            "Re-derive roughly 1/$(docv) of node-returned rows locally and \
             reject (and quarantine the node for) any that disagree — an \
             independent replay oracle against byzantine nodes.  0 \
             disables replay; the structural per-row identity check always \
             runs.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Log retries, reschedules, and node failures to stderr.")
  in
  let run prog_path dir nodes window attempts unit_deadline
      connect_timeout deadline fuel spot_check stats verbose
      cache_dir no_cache =
    let module C = Res_cluster.Coordinator in
    let items = load_corpus (or_die (load_prog prog_path)) dir in
    let config =
      {
        C.default_config with
        C.nodes = nodes;
        window = max 1 window;
        unit_attempts = max 1 attempts;
        unit_deadline;
        connect_timeout;
        deadline_ms = Option.map (fun s -> int_of_float (s *. 1000.)) deadline;
        fuel;
        spot_check = max 0 spot_check;
        cache_dir = (if no_cache then None else cache_dir);
        log =
          (if verbose then fun m -> Fmt.epr "res-coordinate: %s@." m
           else ignore);
      }
    in
    let t0 = Unix.gettimeofday () in
    let t = C.run ~config items in
    print_string t.C.tsv;
    if stats then begin
      Fmt.epr "%a@." C.pp_stats t.C.stats;
      print_load_counts ();
      List.iter
        (fun (addr, state, ok, failed) ->
          Fmt.epr "node %s %s completed=%d failures=%d@." addr state ok failed)
        t.C.node_health;
      Fmt.epr "wall %.3fs@." (Unix.gettimeofday () -. t0)
    end;
    if Res_parallel.Batch.all_failed t.C.rows then exit_internal else exit_ok
  in
  Cmd.v
    (Cmd.info "coordinate"
       ~doc:
         "Shard a batch-triage corpus across $(b,res serve) daemons: route \
          each dump to a node by workload-signature hash, retry and \
          reschedule units off dead or stalled nodes with capped backoff, \
          and print the same deterministic TSV a single-node $(b,res \
          triage) prints.  With $(b,--cache-dir), each unit's verdict is \
          stored as soon as it settles, so a killed coordinator re-run on \
          the same cache dispatches only the units it had not settled.  The \
          per-dump budgets are forwarded to the nodes; unloadable files \
          are settled locally.")
    Term.(
      const run $ prog_arg $ corpus_dir_arg $ nodes_arg $ window
      $ attempts $ unit_deadline $ connect_timeout $ per_dump_deadline_arg
      $ per_dump_fuel_arg $ spot_check $ stats_arg $ verbose
      $ cache_dir_arg $ no_cache_arg)

(* --- selftest --- *)

(* Every campaign but the default fault-injection one: its flag, its doc,
   and its runner, which takes the progress log. *)
let selftest_campaigns =
  let open Res_faultinject in
  let quiet f _log = f () in
  Faultinject.
    [
      ( "prune-equivalence",
        "Run the static-prune equivalence campaign: analyze every workload \
         with pruning on and off and assert byte-identical reports.",
        quiet prune_equivalence_campaign );
      ( "reverse-equivalence",
        "Run the reverse-execution equivalence campaign: analyze every \
         workload with the concrete reverse-execution fast path on and off \
         and assert byte-identical reports.",
        quiet reverse_equivalence_campaign );
      ( "debug-equivalence",
        "Run the debug-equivalence campaign: drive a scripted time-travel \
         session over every workload at snapshot intervals 1, 7, 64 and with \
         the index disabled, and assert the transcripts are byte-identical.",
        quiet debug_equivalence_campaign );
      ( "worker-kill",
        "Run the worker-kill campaign: batch-triage the corpus on forked \
         workers, SIGKILL one mid-unit at several deterministic points, and \
         assert the coordinator reschedules the unit and the final TSV is \
         identical to an undisturbed run's.",
        quiet worker_kill_campaign );
      ( "serve-soak",
        "Run the triage-service soak campaign: flood a daemon at 2x \
         capacity, SIGKILL workers and the daemon itself, restart on the \
         same spool, trip and recover a circuit breaker, drain gracefully — \
         and assert zero lost accepted requests and byte-identical completed \
         report bodies.",
        fun log -> serve_soak_campaign ~log () );
      ( "cluster-soak",
        "Run the multi-node cluster soak campaign: shard the corpus across \
         three TCP node daemons, SIGKILL the coordinator mid-corpus and \
         resume it from its result cache, SIGKILL a node and watch its units \
         reschedule, stall a node past the unit deadline — and assert the \
         merged TSV stays byte-identical to single-node triage with zero \
         lost units.",
        fun log -> cluster_soak_campaign ~log () );
      ( "byzantine",
        "Run the byzantine-node campaign: shard the corpus across three TCP \
         node daemons where one computes honestly but falsifies the rows it \
         returns (wrong unit name, then plausible fabricated verdict \
         fields), and assert every lie is rejected — by the structural \
         identity check and by the replay spot-check respectively — the liar \
         is quarantined, its units reschedule, and the merged TSV stays \
         byte-identical to single-node triage with zero lost units.",
        fun log -> byzantine_campaign ~log () );
      ( "cache-chaos",
        "Run the result-cache chaos campaign: triage the corpus through a \
         result cache that is cold, warm, damaged (a planted torn .tmp \
         journal, a bit-flipped entry, a garbage entry), wholly garbage, \
         failing every read, failing every store (ENOSPC, EIO, failed \
         fsync, torn writes) then reopened, in a random fault storm, and \
         unable to create its directory; the faults are injected only \
         under the campaign's own cache directories.  Assert every run's \
         TSV is byte-identical to uncached triage, damaged entries are \
         quarantined and never served, and a garbage cache behaves exactly \
         like a cold one.",
        fun log -> cache_chaos_campaign ~log () );
    ]

(* Run a campaign; print its runs (with --verbose), its summary, and one
   FAILURE line per failed run. *)
let run_campaign ~verbose name f =
  let module D = Res_faultinject.Differential in
  let log = if verbose then fun m -> Fmt.epr "%s: %s@." name m else ignore in
  let s = f log in
  Fmt.pr "@[<v>%a%a@]@."
    Fmt.(list ~sep:nop (D.pp_run ++ cut))
    (if verbose then s.D.runs else [])
    D.pp_summary s;
  List.iter
    (Fmt.epr "%s FAILURE: %a@." (String.uppercase_ascii name) D.pp_run)
    s.D.failures;
  if s.D.failures = [] then exit_ok else exit_internal

let selftest_cmd =
  let runs =
    Arg.(
      value
      & opt (some int) None
      & info [ "runs" ] ~docv:"N" ~absent:"60"
          ~doc:"How many perturbed analyses to run.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N" ~absent:"1"
          ~doc:"Campaign seed (fully deterministic).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every run.")
  in
  let skip_deadline =
    Arg.(
      value & flag
      & info [ "no-deadline-check" ]
          ~doc:"Skip the wall-clock deadline compliance measurement.")
  in
  let campaign =
    Arg.(
      value
      & vflag None
          (List.map
             (fun (name, doc, f) -> (Some (name, f), info [ name ] ~doc))
             selftest_campaigns))
  in
  let run runs seed verbose skip_deadline campaign =
    match campaign with
    | Some _ when runs <> None || seed <> None || skip_deadline ->
        `Error
          ( true,
            "--runs, --seed and --no-deadline-check apply only to the default \
             fault-injection campaign" )
    | Some (name, f) -> `Ok (run_campaign ~verbose name f)
    | None ->
        `Ok
          (run_campaign ~verbose "fault-injection" (fun _log ->
               Res_faultinject.Faultinject.campaign ?runs ?seed ~skip_deadline
                 ()))
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Fault-inject the analysis pipeline itself (corrupt dumps, starved \
          budgets, tight deadlines) and assert it always degrades to a typed \
          outcome.  At most one campaign flag selects another campaign.")
    Term.(ret (const run $ runs $ seed $ verbose $ skip_deadline $ campaign))

let main_cmd =
  let doc = "reverse execution synthesis for MiniIR coredumps" in
  let info = Cmd.info "res" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      validate_cmd;
      run_cmd;
      analyze_cmd;
      replay_cmd;
      debug_cmd;
      hwdiag_cmd;
      exploit_cmd;
      workload_cmd;
      triage_batch_cmd;
      triage_cmd;
      fuzz_cmd;
      selftest_cmd;
      serve_cmd;
      client_cmd;
      coordinate_cmd;
    ]

(* Never let a raw OCaml exception (or backtrace) reach the user: every
   failure maps to a documented exit code and a one-line message. *)
let () =
  exit
    (try Cmd.eval' ~catch:false main_cmd with
    | Die (code, msg) ->
        Fmt.epr "res: error: %s@." msg;
        code
    | exn ->
        Fmt.epr "res: internal error: %s@." (Printexc.to_string exn);
        exit_internal)
