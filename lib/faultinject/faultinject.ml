(** Fault-injection self-tests for the analysis pipeline itself.

    RES's value proposition is working from whatever evidence survives a
    crash — so the pipeline must survive hostile evidence and starved
    resources.  This harness perturbs the {e analysis substrate}:

    - corrupting the coredump bytes (truncation, bit flips, garbage
      headers, empty files) before loading,
    - starving the search, solver, and symbolic-execution budgets,
    - imposing tight wall-clock deadlines and tiny fuel budgets,

    and asserts the invariant that matters: every perturbed analysis
    terminates with a {e typed} outcome — [Complete], [Partial], [Failed],
    or a classified [dump_error] — and never an uncaught exception.  The
    campaign is fully deterministic for a given seed. *)

type perturbation =
  | Truncate_dump of int  (** keep this percentage (0–99) of the dump bytes *)
  | Flip_dump_byte of int * int  (** (byte offset seed, bit): flip one bit *)
  | Empty_dump
  | Garbage_header
  | Search_starvation of int  (** search max_nodes this small *)
  | Solver_starvation of int  (** solver max_nodes this small *)
  | Symex_starvation of int  (** symexec max_steps this small *)
  | Fuel_starvation of int  (** pipeline budget of this many fuel ticks *)
  | Tight_deadline of float  (** wall-clock deadline in seconds *)

let pp_perturbation ppf = function
  | Truncate_dump pct -> Fmt.pf ppf "truncate dump to %d%%" pct
  | Flip_dump_byte (off, bit) -> Fmt.pf ppf "flip bit %d of dump byte ~%d" bit off
  | Empty_dump -> Fmt.string ppf "empty dump file"
  | Garbage_header -> Fmt.string ppf "garbage dump header"
  | Search_starvation n -> Fmt.pf ppf "search starved to %d nodes" n
  | Solver_starvation n -> Fmt.pf ppf "solver starved to %d nodes" n
  | Symex_starvation n -> Fmt.pf ppf "symexec starved to %d steps" n
  | Fuel_starvation n -> Fmt.pf ppf "budget starved to %d fuel" n
  | Tight_deadline s -> Fmt.pf ppf "%.3fs wall-clock deadline" s

(* --- deterministic PRNG (the campaign must not depend on global state) --- *)

type rng = { mutable s : int }

let rng_next r =
  (* 48-bit LCG; constants fit OCaml's 63-bit int on 64-bit platforms *)
  r.s <- ((r.s * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  r.s lsr 17

let rng_below r n = if n <= 0 then 0 else rng_next r mod n

(* --- the perturbed pipeline --- *)

let small_config =
  {
    Res_core.Res.default_config with
    search =
      { Res_core.Search.default_config with max_segments = 4; max_nodes = 2_000 };
    max_attempts = 2;
  }

let outcome_kind = function
  | Res_core.Res.Complete _ -> "complete"
  | Res_core.Res.Partial _ -> "partial"
  | Res_core.Res.Failed _ -> "failed"

let perturb_dump_text text = function
  | Truncate_dump pct -> String.sub text 0 (String.length text * pct / 100)
  | Flip_dump_byte (off, bit) ->
      let b = Bytes.of_string text in
      let i =
        (* land on a payload byte, deterministically from [off] *)
        if Bytes.length b = 0 then 0 else (off * 2654435761) land max_int mod Bytes.length b
      in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit) land 0xFF));
      Bytes.to_string b
  | Empty_dump -> ""
  | Garbage_header -> "notacoredump v9\n" ^ text
  | _ -> text

let is_dump_perturbation = function
  | Truncate_dump _ | Flip_dump_byte _ | Empty_dump | Garbage_header -> true
  | _ -> false

(** Run one perturbed analysis into a check run counting its typed
    outcome ([complete], [partial], [failed] or [dump-error]) and whether
    the damaged dump was salvage-loaded.  Catches {e everything}: an
    exception that reaches this frame is the run's problem, which the
    self-test asserts never happens. *)
let run_one (w : Res_workloads.Truth.t) perturbation =
  let finish ?(salvaged = false) kind problems =
    Differential.check
      ~name:(Fmt.str "%s: %a" w.Res_workloads.Truth.w_name pp_perturbation
               perturbation)
      ~counts:[ (kind, 1); ("salvaged", Bool.to_int salvaged) ]
      problems
  in
  try
    let dump = Res_workloads.Truth.coredump w in
    let run_analysis ?budget ?(config = small_config) ctx dump =
      outcome_kind (Res_core.Res.analyze ~config ?budget ctx dump)
    in
    if is_dump_perturbation perturbation then
      let text = perturb_dump_text (Res_vm.Coredump_io.to_string dump) perturbation in
      match Res_vm.Coredump_io.of_string_result ~salvage:true text with
      | Error _ -> finish "dump-error" []
      | Ok { dump = loaded; salvaged } ->
          let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
          finish ~salvaged:(salvaged <> None) (run_analysis ctx loaded) []
    else
      let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
      let kind =
        match perturbation with
        | Search_starvation n ->
            let config =
              {
                small_config with
                Res_core.Res.search =
                  { small_config.Res_core.Res.search with Res_core.Search.max_nodes = n };
              }
            in
            run_analysis ~config ctx dump
        | Solver_starvation n ->
            let ctx =
              {
                ctx with
                Res_core.Backstep.solver_config =
                  { ctx.Res_core.Backstep.solver_config with Res_solver.Solver.max_nodes = n };
              }
            in
            run_analysis ctx dump
        | Symex_starvation n ->
            let ctx =
              {
                ctx with
                Res_core.Backstep.sym_config =
                  { ctx.Res_core.Backstep.sym_config with Res_symex.Symexec.max_steps = n };
              }
            in
            run_analysis ctx dump
        | Fuel_starvation n ->
            run_analysis ~budget:(Res_core.Budget.create ~fuel:n ()) ctx dump
        | Tight_deadline s ->
            run_analysis ~budget:(Res_core.Budget.create ~wall_seconds:s ()) ctx dump
        | Truncate_dump _ | Flip_dump_byte _ | Empty_dump | Garbage_header ->
            assert false
      in
      finish kind []
  with exn -> finish "escaped" [ "escaped exception: " ^ Printexc.to_string exn ]

(* --- the campaign --- *)

let default_workloads () : Res_workloads.Truth.t list =
  [
    Res_workloads.Div_zero.workload;
    Res_workloads.Uaf.workload_variant 0;
    Res_workloads.Double_free.workload;
    Res_workloads.Semantic.workload;
    Res_workloads.Long_exec.workload_n 20;
  ]

let perturbation_of rng i =
  match i mod 9 with
  | 0 -> Truncate_dump (rng_below rng 100)
  | 1 -> Flip_dump_byte (rng_next rng, rng_below rng 8)
  | 2 -> Empty_dump
  | 3 -> Garbage_header
  | 4 -> Search_starvation (1 + rng_below rng 20)
  | 5 -> Solver_starvation (1 + rng_below rng 10)
  | 6 -> Symex_starvation (1 + rng_below rng 30)
  | 7 -> Fuel_starvation (1 + rng_below rng 10)
  | _ -> Tight_deadline (0.001 +. (float_of_int (rng_below rng 50) /. 1000.))

(** Measure deadline compliance: run the [long_exec] workload under a
    configuration that would search far past [deadline] seconds.  The
    check run counts whether the clock cut the analysis off ([cut_off]),
    and fails if it overran the deadline by more than [tolerance]. *)
let deadline_compliance ?(deadline = 1.0) ?(tolerance = 0.10) () =
  let w = Res_workloads.Long_exec.workload_n 300 in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let config =
    {
      Res_core.Res.default_config with
      search =
        {
          Res_core.Search.default_config with
          max_segments = 10_000;
          max_suffixes = 1_000;
          max_nodes = max_int;
        };
      stop_at_first_cause = false;
      max_attempts = 1;
    }
  in
  let budget = Res_core.Budget.create ~wall_seconds:deadline () in
  let t0 = Unix.gettimeofday () in
  let outcome = Res_core.Res.analyze ~config ~budget ctx dump in
  let elapsed = Unix.gettimeofday () -. t0 in
  let ms s = int_of_float (s *. 1000.) in
  Differential.check
    ~name:(Fmt.str "%.2fs deadline" deadline)
    ~counts:
      [
        ("deadline_ms", ms deadline);
        ("elapsed_ms", ms elapsed);
        ( "cut_off",
          match outcome with
          | Res_core.Res.Partial (Res_core.Res.Deadline_exceeded, _) -> 1
          | _ -> 0 );
      ]
    (if elapsed <= deadline *. (1. +. tolerance) then []
     else
       [
         Fmt.str "elapsed %.3fs, over %.0f%% past the deadline (%a)" elapsed
           (tolerance *. 100.) Res_core.Res.pp_outcome outcome;
       ])

(** Run [runs] perturbed analyses (deterministic in [seed]), cycling
    workloads and perturbation families, then (unless [skip_deadline])
    the 1 s deadline compliance check. *)
let campaign ?(seed = 1) ?(runs = 60) ?(skip_deadline = false) () =
  let rng = { s = (seed * 2) + 1 } in
  let workloads = default_workloads () in
  let nw = List.length workloads in
  let perturbed =
    List.init runs (fun i ->
        let w = List.nth workloads (i mod nw) in
        run_one w (perturbation_of rng i))
  in
  Differential.summarize ~campaign:"fault-injection"
    (perturbed @ if skip_deadline then [] else [ deadline_compliance () ])

(* --- equivalence campaigns (subjects x variants x projection) --- *)

(** Analyze a crash with a fresh symbol counter and render the
    display-sorted report bodies.  This is the bit-stable projection
    every equivalence check compares and the triage daemon's workers
    emit. *)
let rendered_analysis ?(config = Res_core.Res.default_config) prog dump =
  Res_solver.Expr.reset_counter_for_tests ();
  let ctx = Res_core.Backstep.make_ctx prog in
  let a = Res_core.Res.analysis (Res_core.Res.analyze ~config ctx dump) in
  (Res_core.Report.report_list_to_string ctx a, a)

let workload_analysis ?config (w : Res_workloads.Truth.t) =
  rendered_analysis ?config w.Res_workloads.Truth.w_prog
    (Res_workloads.Truth.coredump w)

let subjects workloads =
  List.map
    (fun (w : Res_workloads.Truth.t) -> (w.Res_workloads.Truth.w_name, w))
    workloads

(* Exhaustive deepening (no early stop) so a fast path is exercised on
   every branch of every workload's search, not just the path to the
   first cause. *)
let exhaustive search =
  { Res_core.Res.default_config with search; stop_at_first_cause = false }

(* --- static pruning and concrete reverse execution --- *)

(** Static pruning off (reference) and on.  The chain refuter is
    admissible — it only discards candidate moves whose backward step
    would produce no children — so the report bodies must match; only the
    work counters may differ. *)
let prune_equivalence_campaign ?(workloads = Res_workloads.Workloads.all) () =
  let projection static_prune w =
    let bytes, a =
      workload_analysis
        ~config:(exhaustive { Res_core.Search.default_config with static_prune })
        w
    in
    {
      Differential.bytes;
      counts =
        ("nodes", a.Res_core.Res.nodes_expanded)
        :: (if static_prune then [ ("pruned", a.Res_core.Res.nodes_pruned) ] else []);
    }
  in
  Differential.run ~campaign:"prune-equivalence" ~reference:(projection false)
    ~variants:[ ("static-prune", projection true) ]
    (subjects workloads)

(** Concrete reverse execution off (reference) and on.  The fast path
    only decides a step when it can prove the unique pre-state (or its
    absence) the symbolic step would have found, and mints the same fresh
    symbols, so the report bodies must match. *)
let reverse_equivalence_campaign ?(workloads = Res_workloads.Workloads.all) () =
  let projection reverse_exec w =
    let q0 = Res_solver.Solver.queries () in
    let bytes, a =
      workload_analysis
        ~config:(exhaustive { Res_core.Search.default_config with reverse_exec })
        w
    in
    {
      Differential.bytes;
      counts =
        ("queries", Res_solver.Solver.queries () - q0)
        ::
        (if reverse_exec then
           [
             ("reversed", a.Res_core.Res.nodes_reversed);
             ("slice_skipped", a.Res_core.Res.slice_skipped);
           ]
         else []);
    }
  in
  Differential.run ~campaign:"reverse-equivalence" ~reference:(projection false)
    ~variants:[ ("reverse-exec", projection true) ]
    (subjects workloads)

(* --- the snapshot index of the time-travel debugger --- *)

(* A session script exercising every command family, derived from the
   suffix's own trace (first written address, a mid-trace pc, the final
   value) so it is meaningful on all workloads yet fully deterministic. *)
let de_script (dump : Res_vm.Coredump.t) (trace : Res_vm.Event.t list) =
  let first_write =
    List.find_map
      (fun (e : Res_vm.Event.t) ->
        match e.Res_vm.Event.action with
        | Res_vm.Event.A_write { addr; _ } -> Some addr
        | _ -> None)
      trace
  in
  let mid_pc =
    match List.nth_opt trace (List.length trace / 2) with
    | Some e -> Some e.Res_vm.Event.pc
    | None -> None
  in
  let base =
    [
      "where";
      "threads";
      "step 3";
      "regs";
      "step-back 2";
      "where";
      "continue";
      "where";
      "list 2";
      "continue-back";
      "goto 0";
      "assert 1";
    ]
  in
  let watch_part =
    match first_write with
    | None -> []
    | Some addr ->
        let final = Res_mem.Memory.read dump.Res_vm.Coredump.mem addr in
        [
          Fmt.str "watch [0x%x]" addr;
          "continue";
          "where";
          "continue-back";
          Fmt.str "twatch [0x%x] == %d" addr final;
          Fmt.str "mem 0x%x 2" addr;
          "continue";
          Fmt.str "assert [0x%x] == %d" addr final;
        ]
  in
  let break_part =
    match mid_pc with
    | None -> []
    | Some pc ->
        [
          Fmt.str "break %s" (Res_ir.Pc.to_string pc);
          "goto 0";
          "continue";
          "breaks";
          "delete 1";
          "continue";
        ]
  in
  base @ watch_part @ break_part

(** The scripted time-travel session over every workload's crash at
    snapshot interval 64 (reference), 7, 1, and with the index disabled.
    Every state query goes through the same seek path — interval 0 merely
    degenerates it to replay-from-zero — so transcripts and exit codes
    must match byte for byte. *)
let debug_equivalence_campaign ?(workloads = Res_workloads.Workloads.all) () =
  let open_at interval (ctx, suffixes, dump) =
    match
      Res_core.Debugger.start_first ~snapshot_every:interval ctx suffixes dump
    with
    | Some (_, dbg) -> dbg
    | None -> failwith "no suffix reproduces the coredump"
  in
  (* search once per workload, on first use inside the harness *)
  let prepare (w : Res_workloads.Truth.t) =
    lazy
      (let dump = Res_workloads.Truth.coredump w in
       let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
       let result =
         Res_core.Search.search
           ~config:
             {
               Res_core.Search.default_config with
               max_segments = 8;
               max_suffixes = 8;
             }
           ctx dump
       in
       let complete, rest =
         List.partition
           (fun s -> s.Res_core.Suffix.complete)
           result.Res_core.Search.suffixes
       in
       let found = (ctx, complete @ rest, dump) in
       (found, de_script dump (Res_core.Debugger.trace (open_at 64 found))))
  in
  let play interval p =
    let found, script = Lazy.force p in
    let s = Res_debug.Session.create (open_at interval found) in
    let r = Res_debug.Script.run_lines s script in
    ( {
        Differential.bytes =
          Fmt.str "%s\nexit %d\n" r.Res_debug.Script.transcript
            r.Res_debug.Script.exit_code;
        counts = [];
      },
      [
        ("steps", Res_debug.Session.length s);
        ("commands", List.length script);
        ("exit", r.Res_debug.Script.exit_code);
      ] )
  in
  Differential.run ~campaign:"debug-equivalence"
    ~reference:(fun p ->
      let proj, counts = play 64 p in
      { proj with counts })
    ~variants:
      (List.map
         (fun (name, interval) -> (name, fun p -> fst (play interval p)))
         [ ("interval-7", 7); ("interval-1", 1); ("no-index", 0) ])
    (List.map (fun (name, w) -> (name, prepare w)) (subjects workloads))

(* --- worker kill during batch triage --- *)

(** The corpus batch-triaged on one worker (reference), then on [jobs]
    forked workers with a SIGKILL landing mid-unit at each of [kills]: the
    coordinator must reschedule the murdered unit and the TSV must not
    change.  Forked backend by construction (domains cannot be killed
    without killing the process), so it must run before any domains run in
    this process. *)
let worker_kill_campaign ?(jobs = 3) ?(kills = [ 0; 3; 7 ]) () =
  let backend = Res_parallel.Pool.Forked in
  let triage ?kill_unit jobs items =
    let t = Res_parallel.Batch.run ~jobs ~backend ?kill_unit items in
    {
      Differential.bytes = t.Res_parallel.Batch.tsv;
      counts =
        [
          ("retries", t.Res_parallel.Batch.retries);
          ("lost", t.Res_parallel.Batch.lost);
        ];
    }
  in
  Differential.run ~campaign:"worker-kill"
    ~reference:(fun items -> { (triage 1 items) with counts = [] })
    ~variants:
      (List.map (fun k -> (Fmt.str "kill@%d" k, triage ~kill_unit:k jobs)) kills)
    [ ("corpus", Fleet.corpus ~n_per_bug:2) ]


(* --- campaign: triage service soak ----------------------------------- *)

(** Soak-test the triage daemon the way production will hurt it: flood it
    past capacity, SIGKILL its workers mid-request, SIGKILL the daemon
    itself and restart it on the same spool, trip a circuit breaker and
    watch it recover, then drain it gracefully.  The acceptance bar is
    the service contract: {e every accepted request eventually yields a
    reply} (zero lost), and every request the service reports
    [complete] has a report body byte-identical to what a serial offline
    [res analyze] of the same dump produces.  Each phase is one check
    run: [flood], [restart], [results], [breaker] and [drain].

    Fork-backed by construction (the daemon and its workers are forked
    processes), so like the worker-kill campaign it must run before any
    domains are spawned in this process. *)

let percentile_ms p latencies =
  match List.sort compare latencies with
  | [] -> 0
  | l ->
      let n = List.length l in
      let idx = min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1) in
      List.nth l (max 0 idx)

let serve_soak_campaign ?log () =
  let module Server = Res_serve.Server in
  let module Client = Res_serve.Client in
  let module P = Res_serve.Protocol in
  Fleet.with_kit ?log "res-soak" @@ fun k ->
  let socket = Client.Unix_socket (Filename.concat k.Fleet.dir "serve.sock") in
  (* a phase's problems, the kit's own included, go to the kit's
     collector; the phase's check run takes them *)
  let fail fmt = Fleet.fail k fmt in
  let phase name counts = Differential.check ~name ~counts (Fleet.take k) in
  let start ~fi ~delay =
    Fleet.fork_daemon k
      {
        Server.default_config with
        Server.listen = socket;
        spool_dir = Filename.concat k.Fleet.dir "spool";
        jobs = 2;
        capacity = 3;
        default_deadline = Some 10.;
        breaker_threshold = 3;
        breaker_cooldown = 0.4;
        fi_kill_workers = fi;
        fi_worker_delay = delay;
      }
  in
  let ready () = Fleet.await (fun () -> Client.alive socket) in
  (* each report submitted twice makes the flood 2x the daemon's total
     absorption (jobs + capacity) *)
  let items = Fleet.corpus ~n_per_bug:1 in
  let submissions = items @ items in
  (* --- phase 1: flood a worker-killing daemon at 2x capacity.  Workers
     are slowed by injected delay so the queue pressure is deterministic:
     2 running + 3 queued absorb 5 of the 10 submissions, the rest must
     shed --- *)
  let pid1 = start ~fi:[ 2 ] ~delay:0.5 in
  if not (ready ()) then fail "daemon 1 never became ready";
  let accepted = ref [] and shed = ref 0 and submitted = ref 0 in
  List.iter
    (fun (it : Res_parallel.Batch.item) ->
      let name = it.it_name in
      incr submitted;
      let prog = Res_ir.Prog.to_string it.it_prog in
      let dump = Res_vm.Coredump_io.to_string (Result.get_ok it.it_dump) in
      match Client.submit socket ~prog ~dump () with
      | Ok (conn, reply) -> (
          Client.close conn;
          match reply with
          | P.Accepted { ac_id; _ } ->
              accepted := (ac_id, name, Unix.gettimeofday ()) :: !accepted
          | P.Rejected_overload _ -> incr shed
          | r -> fail "flood submit %s: unexpected %a" name P.pp_reply r)
      | Error e -> fail "flood submit %s: %s" name (Client.error_to_string e))
    submissions;
  if !shed = 0 then fail "flood at 2x capacity shed nothing";
  let flood =
    phase "flood"
      [
        ("submitted", !submitted);
        ("accepted", List.length !accepted);
        ("shed", !shed);
      ]
  in
  (* --- phase 2: SIGKILL the daemon mid-flight, restart on the spool.
     The small worker delay keeps the injected SIGKILL honest: without it
     the scheduler often runs the doomed child to completion before the
     daemon's kill lands --- *)
  Fleet.kill k pid1;
  let pid2 = start ~fi:[ 1 ] ~delay:0.05 in
  if not (ready ()) then fail "daemon 2 never became ready after restart";
  (* the restart run also checks what daemon 2 recovered, read in phase 5 *)
  let restart_problems = Fleet.take k in
  (* --- phase 3: every accepted request must yield a reply --- *)
  let latencies = ref [] and completed = ref 0 and lost = ref 0 in
  let mismatched = ref 0 in
  List.iter
    (fun (id, name, t_submit) ->
      match Client.await_result ~deadline:60.0 socket id with
      | Ok (P.Result { rs_outcome; rs_body; _ }) ->
          incr completed;
          latencies :=
            int_of_float ((Unix.gettimeofday () -. t_submit) *. 1000.)
            :: !latencies;
          if String.equal rs_outcome "complete" then begin
            let it =
              List.find
                (fun it -> String.equal it.Res_parallel.Batch.it_name name)
                items
            in
            let expected, _ =
              rendered_analysis it.Res_parallel.Batch.it_prog
                (Result.get_ok it.Res_parallel.Batch.it_dump)
            in
            if not (String.equal rs_body expected) then begin
              incr mismatched;
              fail "%s (%s): completed body differs from offline analyze" id
                name
            end
          end
      | Ok r ->
          incr lost;
          fail "%s (%s): no result: %a" id name P.pp_reply r
      | Error e ->
          incr lost;
          fail "%s (%s): no result: %s" id name (Client.error_to_string e))
    (List.rev !accepted);
  let results =
    phase "results"
      [
        ("completed", !completed);
        ("lost", !lost);
        ("mismatched", !mismatched);
        ("p50_ms", percentile_ms 0.50 !latencies);
        ("p99_ms", percentile_ms 0.99 !latencies);
      ]
  in
  (* --- phase 4: trip a breaker with budget-exhausting requests, then
     watch the half-open probe close it again.  The tar pit is the
     long-execution workload under fuel 1: its search needs dozens of
     nodes, so one fuel tick guarantees a Fuel_exhausted partial --- *)
  let b_w = Res_workloads.Long_exec.workload_n 50 in
  let b_name = b_w.Res_workloads.Truth.w_name in
  let b_prog = Res_ir.Prog.to_string b_w.Res_workloads.Truth.w_prog in
  let b_dump =
    Res_vm.Coredump_io.to_string (Res_workloads.Truth.coredump b_w)
  in
  let submit_exhausting () =
    match
      Client.submit_wait ~timeout:30.0 socket ~prog:b_prog ~dump:b_dump ~fuel:1
        ()
    with
    | Ok (P.Accepted _, Some (P.Result { rs_timeout; _ })) -> `Done rs_timeout
    | Ok (reply, _) -> `Rejected reply
    | Error e -> `Err (Client.error_to_string e)
  in
  let rec trip n =
    if n = 0 then true
    else
      match submit_exhausting () with
      | `Done true -> trip (n - 1)
      | `Done false ->
          fail "breaker phase: fuel-starved %s finished within budget" b_name;
          false
      | `Rejected r ->
          fail "breaker phase: submit rejected early: %a" P.pp_reply r;
          false
      | `Err e ->
          fail "breaker phase: %s" e;
          false
  in
  let tripped =
    trip 3
    &&
    match submit_exhausting () with
    | `Rejected (P.Rejected_breaker _) -> true
    | `Rejected r ->
        fail "breaker never tripped: got %a" P.pp_reply r;
        false
    | `Done _ ->
        fail "breaker never tripped: request was admitted";
        false
    | `Err e ->
        fail "breaker trip check: %s" e;
        false
  in
  let breaker_recovered =
    tripped
    && begin
         Unix.sleepf 0.5 (* past the 0.4s cooldown: next submit is the probe *)
       ;
         match
           Client.submit_wait ~timeout:30.0 socket ~prog:b_prog ~dump:b_dump ()
         with
         | Ok (P.Accepted _, Some (P.Result { rs_timeout = false; _ })) -> (
             (* probe succeeded: the breaker must be closed again *)
             match
               Client.submit_wait ~timeout:30.0 socket ~prog:b_prog
                 ~dump:b_dump ()
             with
             | Ok (P.Accepted _, Some (P.Result _)) -> true
             | Ok (r, _) ->
                 fail "breaker stayed open after a good probe: %a" P.pp_reply r;
                 false
             | Error e ->
                 fail "post-probe submit: %s" (Client.error_to_string e);
                 false)
         | Ok (r, _) ->
             fail "half-open probe was not admitted/completed: %a" P.pp_reply r;
             false
         | Error e ->
             fail "half-open probe: %s" (Client.error_to_string e);
             false
       end
  in
  let breaker =
    phase "breaker"
      [
        ("tripped", Bool.to_int tripped);
        ("reclosed", Bool.to_int breaker_recovered);
      ]
  in
  (* --- phase 5: read final counters, then drain gracefully --- *)
  let recovered, restarts =
    match Client.status socket with
    | Ok (P.Status_reply { st_recovered; st_worker_restarts; _ }) ->
        (st_recovered, st_worker_restarts)
    | _ ->
        fail "status request failed";
        (0, 0)
  in
  if recovered = 0 then
    fail "restarted daemon recovered nothing from the spool";
  if restarts = 0 then
    fail "injected worker SIGKILL produced no supervised restart";
  let restart =
    Differential.check ~name:"restart"
      ~counts:[ ("recovered", recovered); ("worker_restarts", restarts) ]
      (restart_problems @ Fleet.take k)
  in
  ignore (Client.drain ~timeout:5.0 socket);
  ignore (Fleet.reap k "daemon 2" pid2);
  let drain = phase "drain" [] in
  Fleet.close k
    (Differential.summarize ~campaign:"serve-soak"
       [ flood; restart; results; breaker; drain ])

(* A node daemon of the cluster and byzantine soaks, spooling under the
   kit's scratch directory. *)
let soak_node (k : Fleet.t) name =
  {
    Res_serve.Server.default_config with
    Res_serve.Server.spool_dir = Filename.concat k.Fleet.dir (name ^ "-spool");
    jobs = 2;
    capacity = 8;
    default_deadline = Some 10.;
  }

(* --- the fleet campaigns' shared projections ------------------------- *)

(* Raise the broken ones of a phase's [(broken, message)] expectations as
   its failure. *)
let expect checks =
  match List.filter_map (fun (broken, m) -> if broken then Some m else None) checks with
  | [] -> ()
  | ms -> failwith (String.concat "; " ms)

(* The reference of the fleet campaigns: fork-backed, uncached
   single-node triage of the corpus (domains must not exist yet). *)
let single_node items =
  {
    Differential.bytes =
      (Res_parallel.Batch.run ~jobs:1 ~backend:Res_parallel.Pool.Forked items)
        .Res_parallel.Batch.tsv;
    counts = [];
  }

(* A coordinator run as a projection of the corpus: its merged TSV, and
   [counts] plus its lost units and duplicate dumps.  A lost
   unit or a broken expectation in [checks] fails it. *)
let coordinated (t : Res_cluster.Coordinator.t) counts checks =
  let module C = Res_cluster.Coordinator in
  let st = t.C.stats in
  expect ((st.C.cs_lost > 0, Fmt.str "%d unit(s) lost" st.C.cs_lost) :: checks);
  {
    Differential.bytes = t.C.tsv;
    counts =
      counts
      @ [
          ("lost", st.C.cs_lost);
          ("duplicates", st.C.cs_duplicates);
        ];
  }

(* The node list [others] with [addr] inserted at the index the
   coordinator routes the most of [items] to, so a fault injected at
   [addr] is guaranteed traffic, deterministically. *)
let at_busiest_node items addr others =
  let n = List.length others + 1 in
  let counts = Array.make n 0 in
  List.iter
    (fun (it : Res_parallel.Batch.item) ->
      let i =
        Res_cluster.Coordinator.primary_node ~n_nodes:n
          (Result.get_ok it.it_dump)
      in
      counts.(i) <- counts.(i) + 1)
    items;
  let best = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!best) then best := i) counts;
  List.filteri (fun i _ -> i < !best) others
  @ (addr :: List.filteri (fun i _ -> i >= !best) others)

(* --- campaign: multi-node cluster soak ------------------------------- *)

(** Soak-test the cluster coordinator the way a real deployment will
    hurt it: SIGKILL the coordinator mid-corpus and resume it from its
    result cache, SIGKILL a node mid-corpus and watch its units reschedule,
    and partition a node behind an injected worker stall so exchanges
    time out instead of failing fast.  The acceptance bar is the
    cluster contract: {e the merged TSV is byte-identical to a
    single-node [res triage] of the same corpus under every kill
    schedule}, with zero lost units and every retry/reschedule counted.
    The corpus is the one subject, single-node triage the reference, and
    the faulted runs the variants: [coordinator-kill], [node-kill] and
    [partition].

    Fork-backed by construction (nodes, the killed coordinator, and the
    killer are forked processes), so it must run before any domains are
    spawned in this process. *)
let cluster_soak_campaign ?log () =
  let module C = Res_cluster.Coordinator in
  Fleet.with_kit ?log "res-cluster" @@ fun k ->
  let items = Fleet.corpus ~n_per_bug:3 in
  let start_node ~name ~delay =
    Fleet.fork_node k { (soak_node k name) with fi_worker_delay = delay }
  in
  let pid1, addr1 = start_node ~name:"node1" ~delay:0.08 in
  let pid2, addr2 = start_node ~name:"node2" ~delay:0.08 in
  let pid3, addr3 = start_node ~name:"node3" ~delay:0.08 in
  List.iter (Fleet.node_ready k) [ addr1; addr2; addr3 ];
  (* node 2, the one node-kill SIGKILLs and partition replaces, sits
     where the most units route: one dispatch per content key leaves a
     quiet node idle after its first exchanges, and a kill there would
     land after its last *)
  let fleet addr = at_busiest_node items addr [ addr1; addr3 ] in
  let config name =
    {
      C.default_config with
      C.nodes = fleet addr2;
      window = 2;
      (* two consecutive failed exchanges declare a node dead: a small
         corpus must still reach the declaration before it runs out *)
      node_attempts = 2;
      cache_dir = Some (Filename.concat k.Fleet.dir name);
      log = k.Fleet.log;
    }
  in
  (* how the campaign times its kills to land mid-corpus: each variant
     has a cache of its own, which holds one entry per settled unit *)
  let settled name want () =
    Res_cache.Cache.entry_count (Filename.concat k.Fleet.dir name) >= want
  in
  (* SIGKILL the coordinator mid-corpus, resume from its cache.  The
     first incarnation is a forked child; the parent waits for a few
     settled units, kills it, and re-runs the same corpus on the same
     cache in-process. *)
  let coordinator_kill items =
    let co_pid =
      Fleet.spawn k (fun () -> ignore (C.run ~config:(config "cache1") items))
    in
    let reached = Fleet.await ~timeout:30. ~every:0.01 (settled "cache1" 3) in
    Fleet.kill k co_pid;
    let t = C.run ~config:(config "cache1") items in
    let hits = t.C.stats.C.cs_cache_hits in
    coordinated t
      [ ("cache_hits", hits) ]
      [
        (not reached, "the cache never reached 3 entries");
        (hits < 3, Fmt.str "resumed run served only %d unit(s) from the cache" hits);
      ]
  in
  (* SIGKILL a node mid-corpus.  A forked killer waits for the run to be
     underway (a settled unit), then SIGKILLs node 2; its units must
     reschedule onto the survivors. *)
  let node_kill items =
    let killer =
      Fleet.spawn k (fun () ->
          if Fleet.await ~timeout:30. ~every:0.01 (settled "cache2" 1) then
            try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ())
    in
    let t = C.run ~config:(config "cache2") items in
    ignore (Fleet.reap k "killer" killer);
    Fleet.kill k pid2;
    let st = t.C.stats in
    coordinated t
      [
        ("retries", st.C.cs_retries);
        ("reschedules", st.C.cs_reschedules);
        ("nodes_dead", st.C.cs_nodes_dead);
      ]
      [
        (st.C.cs_retries = 0, "no unit was ever retried");
        (st.C.cs_nodes_dead = 0, "the SIGKILLed node was never declared dead");
      ]
  in
  (* Partition a node behind an injected stall.  Node 4's workers sleep
     far past the unit deadline, so every exchange routed to it times out
     mid-wait and fails over to the healthy nodes; with its workers still
     sleeping, it is killed rather than drained. *)
  let partition items =
    let pid4, addr4 = start_node ~name:"node4" ~delay:3.0 in
    Fleet.node_ready k addr4;
    let t =
      C.run
        ~config:
          {
            (config "cache3") with
            C.nodes = fleet addr4;
            unit_deadline = 1.0;
          }
        items
    in
    Fleet.kill k pid4;
    let cutoffs = t.C.stats.C.cs_node_failures in
    coordinated t
      [ ("deadline_cutoffs", cutoffs) ]
      [ (cutoffs = 0, "no exchange was ever cut off by the unit deadline") ]
  in
  let s =
    Differential.run ~campaign:"cluster-soak" ~reference:single_node
      ~variants:
        [
          ("coordinator-kill", coordinator_kill);
          ("node-kill", node_kill);
          ("partition", partition);
        ]
      [ ("corpus", items) ]
  in
  (* the surviving healthy nodes must exit 0 on SIGTERM *)
  ignore (Fleet.reap k ~signal:Sys.sigterm "node1" pid1);
  ignore (Fleet.reap k ~signal:Sys.sigterm "node3" pid3);
  Fleet.close k s

(* --- campaign: byzantine node ---------------------------------------- *)

(** Prove the coordinator survives a {e lying} node, not just a dead
    one.  Three TCP node daemons serve the corpus; one is forked with a
    result-corruption fault injected ([fi_corrupt_rows]) so it computes
    honestly and then falsifies the row it returns.  Two lies are
    tried, each a variant against fork-backed single-node triage and
    each against the defense built for it:

    - [wrong-name] (caught by the structural identity check that runs on
      every row): the reply claims to answer a unit that was never
      asked;
    - [fabricated-fields] (caught only by the probabilistic replay
      spot-check, [spot_check = 1] here so every row is re-derived
      locally): the reply is structurally perfect but its bucket, cause,
      and node count are invented.

    In both, the lie must be rejected ([cs_byzantine] > 0), the liar
    quarantined via the registry's Dead path, its units rescheduled onto
    honest nodes, and the merged TSV byte-identical to the reference with
    zero lost units — corrupted answers must cost retries, never
    results.

    Fork-backed by construction (every node is a forked process), so it
    must run before any domains are spawned in this process. *)
let byzantine_campaign ?log () =
  let module C = Res_cluster.Coordinator in
  Fleet.with_kit ?log "res-byzantine" @@ fun k ->
  let items = Fleet.corpus ~n_per_bug:3 in
  let start_node ~name ~corrupt =
    Fleet.fork_node k { (soak_node k name) with fi_corrupt_rows = corrupt }
  in
  let pid_h1, addr_h1 = start_node ~name:"honest1" ~corrupt:"" in
  let pid_h2, addr_h2 = start_node ~name:"honest2" ~corrupt:"" in
  List.iter (Fleet.node_ready k) [ addr_h1; addr_h2 ];
  (* the liar sits where the most units route, the honest nodes fill
     the other slots in order *)
  let fleet liar_addr = at_busiest_node items liar_addr [ addr_h1; addr_h2 ] in
  (* one lie: fork a liar corrupting [corrupt], triage the corpus with
     the liar in its slot, then kill it *)
  let lying ~corrupt ~spot_check items =
    let pid, addr = start_node ~name:("liar-" ^ corrupt) ~corrupt in
    Fleet.node_ready k addr;
    let t =
      C.run
        ~config:
          {
            C.default_config with
            C.nodes = fleet addr;
            window = 2;
            node_attempts = 2;
            spot_check;
            log = k.Fleet.log;
          }
        items
    in
    Fleet.kill k pid;
    let st = t.C.stats in
    coordinated t
      [
        ("rejected", st.C.cs_byzantine);
        ("reschedules", st.C.cs_reschedules);
        ("nodes_dead", st.C.cs_nodes_dead);
      ]
      [
        (st.C.cs_byzantine = 0, "no corrupted row was ever rejected");
        (st.C.cs_nodes_dead = 0, "the lying node was never quarantined");
        (st.C.cs_reschedules = 0, "no unit was ever rescheduled off the liar");
      ]
  in
  let s =
    Differential.run ~campaign:"byzantine" ~reference:single_node
      ~variants:
        [
          ("wrong-name", lying ~corrupt:"name" ~spot_check:0);
          (* the row is structurally perfect, so only re-deriving the
             verdict locally can expose it: spot_check = 1 replays every
             row *)
          ("fabricated-fields", lying ~corrupt:"fields" ~spot_check:1);
        ]
      [ ("corpus", items) ]
  in
  (* the honest nodes must exit 0 on SIGTERM *)
  ignore (Fleet.reap k ~signal:Sys.sigterm "honest1" pid_h1);
  ignore (Fleet.reap k ~signal:Sys.sigterm "honest2" pid_h2);
  Fleet.close k s

(* --- campaign: result-cache chaos ------------------------------------ *)

(** Chaos-test the content-addressed result cache the way a hostile disk
    will hurt it: plant a torn atomic-writer journal, flip a bit in a
    sealed entry, replace every entry with garbage, and inject ENOSPC /
    EIO / failed-fsync / torn-write faults into the cache's reads, writes
    and directory creation — then assert the crash-only contract: {e
    every} run, however damaged or starved the cache, produces a triage
    TSV byte-identical to the uncached baseline.  A garbage cache must
    behave exactly like a cold cache (quarantine + recompute + re-store),
    and a cache that cannot even create its directory must degrade to
    pure recompute — never to an exception, never to wrong bytes.  Every
    cached run is one variant against the uncached reference.

    Fork-backed by construction (batch workers are forked processes and
    the injector is process-global), so like the other fork campaigns it
    must run before any domains are spawned in this process. *)
let cache_chaos_campaign ?log () =
  let module Cache = Res_cache.Cache in
  let module Batch = Res_parallel.Batch in
  let module Shim = Res_core.Ioshim in
  Fleet.with_kit ?log "res-cache-chaos" @@ fun k ->
  let base = k.Fleet.dir in
  let under d path =
    String.length path > String.length d && String.starts_with ~prefix:d path
  in
  let tmp_left d =
    match Sys.readdir d with
    | exception Sys_error _ -> false
    | es -> Array.exists (fun e -> Filename.check_suffix e ".tmp") es
  in
  (* an injector failing every [op] on [d] or a path under it with
     [fault], counting the faults into [injected] *)
  let failing op d fault injected op' path =
    if op' = op && (String.equal path d || under d path) then begin
      incr injected;
      Some fault
    end
    else None
  in
  let items = Fleet.corpus ~n_per_bug:2 in
  let n_units = List.length items in
  (* One cached triage of the corpus: its TSV, and the run's hits, the
     cache's counters and the faults injected, where not zero.  A broken
     expectation in [checks t stats] fails it. *)
  let cached ?(injected = ref 0) c checks items =
    let t = Batch.run ~jobs:1 ~backend:Res_parallel.Pool.Forked ~cache:c items in
    let s = Cache.stats c in
    expect (checks t s);
    {
      Differential.bytes = t.Batch.tsv;
      counts =
        List.filter
          (fun (_, n) -> n <> 0)
          [
            ("hits", t.Batch.cache_hits);
            ("stores", s.Cache.stores);
            ("quarantined", s.Cache.quarantined);
            ("store_failures", s.Cache.store_failures);
            ("injected", !injected);
          ];
    }
  in
  let no_hits what (t : Batch.t) =
    (t.Batch.cache_hits <> 0, Fmt.str "%d hit(s) served %s" t.Batch.cache_hits what)
  in
  let all_hits what (t : Batch.t) =
    ( t.Batch.cache_hits < n_units,
      Fmt.str "only %d/%d hits %s" t.Batch.cache_hits n_units what )
  in
  (* --- a cold fill, then a fully warm replay ------------------------- *)
  let dir1 = Filename.concat base "steady" in
  let cold items =
    cached (Cache.openr dir1)
      (fun t _ ->
        let on_disk = Cache.entry_count dir1 in
        [
          no_hits "from an empty cache" t;
          ( on_disk < n_units,
            Fmt.str "only %d/%d entries on disk after the fill" on_disk n_units );
        ])
      items
  in
  let warm items =
    cached (Cache.openr dir1) (fun t _ -> [ all_hits "from a warm cache" t ]) items
  in
  (* --- a torn journal, a bit-flipped entry and a garbage entry -------- *)
  let corrupt items =
    (match
       Sys.readdir dir1 |> Array.to_list
       |> List.filter (fun e -> Filename.check_suffix e ".entry")
       |> List.sort compare
     with
    | [] -> failwith "no entries to damage"
    | e0 :: rest ->
        let p0 = Filename.concat dir1 e0 in
        (* a torn atomic-writer journal, as left by a writer killed
           mid-[write(2)]: reopen must delete it, never promote it *)
        let oc = open_out_bin (Res_vm.Coredump_io.fresh_tmp_path p0) in
        output_string oc "rescache v1\nhalf a sealed entry";
        close_out oc;
        (* one flipped bit in a sealed entry: the seal must catch it *)
        (match Res_vm.Coredump_io.read_file p0 with
        | Ok src when String.length src > 0 ->
            let b = Bytes.of_string src in
            let i = Bytes.length b / 2 in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
            let oc = open_out_bin p0 in
            output_bytes oc b;
            close_out oc
        | _ -> Fmt.failwith "could not read %s back" e0);
        (* and one entry replaced outright *)
        (match rest with
        | e1 :: _ ->
            let oc = open_out_bin (Filename.concat dir1 e1) in
            output_string oc "not a sealed entry at all\n";
            close_out oc
        | [] -> ()));
    let c = Cache.openr dir1 in
    let torn_left = tmp_left dir1 in
    cached c
      (fun t s ->
        [
          (torn_left, "torn .tmp journal survived reopen");
          (s.Cache.quarantined = 0, "damaged entries were never quarantined");
          (t.Batch.cache_hits >= n_units, "damaged entries were served as hits");
        ])
      items
  in
  (* --- every entry replaced by deterministic garbage.  The contract
     under total corruption: quarantine everything, recompute everything,
     re-store everything — a garbage cache IS a cold cache ------------- *)
  let garbage items =
    let rng = { s = 0xC0FFEE } in
    Array.iter
      (fun e ->
        if Filename.check_suffix e ".entry" then begin
          let oc = open_out_bin (Filename.concat dir1 e) in
          for _ = 1 to 64 + rng_below rng 128 do
            output_char oc (Char.chr (rng_below rng 256))
          done;
          close_out oc
        end)
      (Sys.readdir dir1);
    cached (Cache.openr dir1)
      (fun t s ->
        [
          no_hits "from garbage entries" t;
          ( s.Cache.quarantined < n_units,
            Fmt.str "only %d/%d garbage entries quarantined" s.Cache.quarantined
              n_units );
        ])
      items
  in
  (* the garbage run must have healed the cache: warm again, full hits *)
  let healed items =
    cached (Cache.openr dir1)
      (fun t _ -> [ all_hits "after the garbage run re-stored" t ])
      items
  in
  (* --- injected read faults on a warm cache.  Every lookup hits EIO;
     the cache must quarantine, recompute, and re-store ----------------- *)
  let read_fault items =
    let c = Cache.openr dir1 in
    let injected = ref 0 in
    Shim.with_injector (failing Shim.Read dir1 Shim.Eio injected) (fun () ->
        cached ~injected c (fun t _ -> [ no_hits "through injected EIO" t ]) items)
  in
  (* --- injected store faults, one fault family at a time.  Every store
     fails (leaving realistic torn journals); the run must shrug
     (store_failures), stay byte-identical, and the next reopen must
     sweep the wreckage ------------------------------------------------- *)
  let store_fault f =
    let name = Shim.fault_name f in
    let cdir = Filename.concat base ("storm-" ^ name) in
    let faulted items =
      let c = Cache.openr cdir in
      let injected = ref 0 in
      Shim.with_injector (failing Shim.Write cdir f injected) (fun () ->
          cached ~injected c
            (fun _ s ->
              [
                (s.Cache.store_failures = 0, "no store ever failed under injection");
                ( s.Cache.stores <> 0,
                  Fmt.str "%d store(s) claimed success under injection"
                    s.Cache.stores );
              ])
            items)
    in
    (* reopen sweeps torn journals; the cache is simply still cold *)
    let recold items =
      let c = Cache.openr cdir in
      let torn_left = tmp_left cdir in
      cached c
        (fun _ _ ->
          let on_disk = Cache.entry_count cdir in
          [
            (torn_left, "torn .tmp journals survived reopen");
            ( on_disk < n_units,
              Fmt.str "only %d/%d entries stored once the disk healed" on_disk
                n_units );
          ])
        items
    in
    [ ("store-fault-" ^ name, faulted); ("recold-" ^ name, recold) ]
  in
  (* --- a randomized (but deterministic) storm: roughly one in three
     cache I/Os fails, fault family drawn per-operation ----------------- *)
  let dir6 = Filename.concat base "storm-random" in
  let storm_rng = { s = 0xBADD15C } in
  let storm_inj injected op path =
    if not (under dir6 path) then None
    else
      match op with
      | Shim.Fsync_dir -> None (* tolerated by design; keep the rng honest *)
      | _ ->
          if rng_below storm_rng 3 = 0 then begin
            incr injected;
            Some
              (match rng_below storm_rng 4 with
              | 0 -> Shim.Enospc
              | 1 -> Shim.Eio
              | 2 -> Shim.Fsync_fail
              | _ -> Shim.Torn (1 + rng_below storm_rng 40))
          end
          else None
  in
  let storm items =
    let injected = ref 0 in
    Shim.with_injector (storm_inj injected) (fun () ->
        cached ~injected (Cache.openr dir6) (fun _ _ -> []) items)
  in
  let storm_healed items =
    let c = Cache.openr dir6 in
    let torn_left = tmp_left dir6 in
    cached c (fun _ _ -> [ (torn_left, "torn .tmp journals survived reopen") ]) items
  in
  (* --- the cache directory itself cannot be created.  openr must not
     raise, and the run must degrade to pure recompute ------------------ *)
  let no_dir items =
    let dir7 = Filename.concat base "no-dir" in
    let injected = ref 0 in
    let c =
      Shim.with_injector (failing Shim.Mkdir dir7 Shim.Eio injected) (fun () ->
          Cache.openr dir7)
    in
    cached ~injected c
      (fun t s ->
        [
          no_hits "from a cache whose directory does not exist" t;
          ( s.Cache.store_failures = 0,
            "stores into a missing directory claimed success" );
        ])
      items
  in
  let variants =
    [
      ("cold", cold);
      ("warm", warm);
      ("corrupt", corrupt);
      ("garbage", garbage);
      ("healed", healed);
      ("read-fault", read_fault);
    ]
    @ List.concat_map store_fault
        [ Shim.Enospc; Shim.Eio; Shim.Fsync_fail; Shim.Torn 11 ]
    @ [
        ("storm-cold", storm);
        ("storm-warm", storm);
        ("storm-healed", storm_healed);
        ("no-dir", no_dir);
      ]
  in
  Fleet.close k
    (Differential.run ~campaign:"cache-chaos" ~reference:single_node
       ~variants:
         (List.map
            (fun (name, f) ->
              ( name,
                fun items ->
                  k.Fleet.log ("run: " ^ name);
                  f items ))
            variants)
       [ ("corpus", items) ])
