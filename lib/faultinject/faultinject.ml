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

(** What a perturbed analysis terminated with.  [R_dump_error] means the
    hardened loader classified the damage before analysis (which is the
    correct typed answer for an unsalvageable dump). *)
type result_kind =
  | R_complete
  | R_partial
  | R_failed
  | R_dump_error
  | R_escaped of string  (** an exception escaped: the invariant violated *)

let result_kind_name = function
  | R_complete -> "complete"
  | R_partial -> "partial"
  | R_failed -> "failed"
  | R_dump_error -> "dump-error"
  | R_escaped _ -> "ESCAPED-EXCEPTION"

type run = {
  r_workload : string;
  r_perturbation : perturbation;
  r_kind : result_kind;
  r_salvaged : bool;  (** the dump was damaged but salvage-loaded *)
  r_detail : string;
  r_elapsed : float;  (** wall-clock seconds for the whole perturbed run *)
}

type summary = {
  runs : run list;
  total : int;
  complete : int;
  partial : int;
  failed : int;
  dump_errors : int;
  salvaged : int;
  escaped : run list;  (** empty iff the pipeline held its invariant *)
}

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
  | Res_core.Res.Complete _ -> R_complete
  | Res_core.Res.Partial _ -> R_partial
  | Res_core.Res.Failed _ -> R_failed

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

(** Run one perturbed analysis.  Catches {e everything}: an exception that
    reaches this frame is recorded as [R_escaped], which the self-test
    asserts never happens. *)
let run_one (w : Res_workloads.Truth.t) perturbation : run =
  let t0 = Unix.gettimeofday () in
  let finish kind ?(salvaged = false) detail =
    {
      r_workload = w.Res_workloads.Truth.w_name;
      r_perturbation = perturbation;
      r_kind = kind;
      r_salvaged = salvaged;
      r_detail = detail;
      r_elapsed = Unix.gettimeofday () -. t0;
    }
  in
  try
    let dump = Res_workloads.Truth.coredump w in
    let run_analysis ?budget ctx dump =
      let outcome = Res_core.Res.analyze ~config:small_config ?budget ctx dump in
      finish (outcome_kind outcome) (Fmt.str "%a" Res_core.Res.pp_outcome outcome)
    in
    if is_dump_perturbation perturbation then
      let text = perturb_dump_text (Res_vm.Coredump_io.to_string dump) perturbation in
      match Res_vm.Coredump_io.of_string_result ~salvage:true text with
      | Error e ->
          finish R_dump_error (Res_vm.Coredump_io.dump_error_to_string e)
      | Ok { dump = loaded; salvaged } ->
          let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
          let r = run_analysis ctx loaded in
          { r with r_salvaged = salvaged <> None }
    else
      let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
      match perturbation with
      | Search_starvation n ->
          let config =
            {
              small_config with
              Res_core.Res.search =
                { small_config.Res_core.Res.search with Res_core.Search.max_nodes = n };
            }
          in
          let outcome = Res_core.Res.analyze ~config ctx dump in
          finish (outcome_kind outcome) (Fmt.str "%a" Res_core.Res.pp_outcome outcome)
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
  with exn -> finish (R_escaped (Printexc.to_string exn)) (Printexc.to_string exn)

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

(** Run [runs] perturbed analyses (deterministic in [seed]), cycling
    workloads and perturbation families. *)
let campaign ?(seed = 1) ?(runs = 60) () : summary =
  let rng = { s = (seed * 2) + 1 } in
  let workloads = default_workloads () in
  let nw = List.length workloads in
  let results =
    List.init runs (fun i ->
        let w = List.nth workloads (i mod nw) in
        run_one w (perturbation_of rng i))
  in
  let count p = List.length (List.filter p results) in
  {
    runs = results;
    total = List.length results;
    complete = count (fun r -> r.r_kind = R_complete);
    partial = count (fun r -> r.r_kind = R_partial);
    failed = count (fun r -> r.r_kind = R_failed);
    dump_errors = count (fun r -> r.r_kind = R_dump_error);
    salvaged = count (fun r -> r.r_salvaged);
    escaped =
      List.filter (fun r -> match r.r_kind with R_escaped _ -> true | _ -> false)
        results;
  }

(* --- deadline compliance (acceptance: 1s honored within 10%) --- *)

type deadline_check = {
  d_deadline : float;
  d_elapsed : float;
  d_outcome : string;
  d_hit_deadline : bool;  (** the analysis was actually cut off by the clock *)
  d_within : bool;  (** elapsed <= deadline * (1 + tolerance) *)
}

(** Run the [long_exec] workload under a configuration that would search
    far past [deadline] seconds, and measure how promptly the cooperative
    deadline cuts the analysis off. *)
let deadline_compliance ?(deadline = 1.0) ?(tolerance = 0.10) () : deadline_check =
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
  {
    d_deadline = deadline;
    d_elapsed = elapsed;
    d_outcome = Fmt.str "%a" Res_core.Res.pp_outcome outcome;
    d_hit_deadline =
      (match outcome with
      | Res_core.Res.Partial (Res_core.Res.Deadline_exceeded, _) -> true
      | _ -> false);
    d_within = elapsed <= deadline *. (1. +. tolerance);
  }

(* --- reporting --- *)

let pp_run ppf r =
  Fmt.pf ppf "%-18s %-32s -> %-10s%s (%.3fs)" r.r_workload
    (Fmt.str "%a" pp_perturbation r.r_perturbation)
    (result_kind_name r.r_kind)
    (if r.r_salvaged then " [salvaged]" else "")
    r.r_elapsed

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>fault-injection self-test: %d perturbed analyses@,\
     complete %d | partial %d | failed %d | dump-error %d (salvaged %d)@,\
     escaped exceptions: %d@]"
    s.total s.complete s.partial s.failed s.dump_errors s.salvaged
    (List.length s.escaped)

let pp_deadline_check ppf d =
  Fmt.pf ppf
    "deadline %.2fs: elapsed %.3fs, cut off by clock: %b, within tolerance: %b (%s)"
    d.d_deadline d.d_elapsed d.d_hit_deadline d.d_within d.d_outcome

(* --- equivalence campaigns (subjects x variants x projection) --- *)

(** Analyze a crash with a fresh symbol counter and render the
    display-sorted report bodies — or, with [counters], the reports under
    their work-counter header.  This is the bit-stable projection every
    equivalence check compares and the triage daemon's workers emit. *)
let rendered_analysis ?(config = Res_core.Res.default_config)
    ?(counters = false) prog dump =
  Res_solver.Expr.reset_counter_for_tests ();
  let ctx = Res_core.Backstep.make_ctx prog in
  let a = Res_core.Res.analysis (Res_core.Res.analyze ~config ctx dump) in
  let render =
    if counters then Res_core.Report.reports_to_string
    else Res_core.Report.report_list_to_string
  in
  (render ctx a, a)

let workload_analysis ?config ?counters (w : Res_workloads.Truth.t) =
  rendered_analysis ?config ?counters w.Res_workloads.Truth.w_prog
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

(* --- kill-and-resume (crash-safe checkpointing) --- *)

(* Exhaustive deepening so every workload's search is deep enough for
   kill points to land mid-analysis. *)
let kr_config =
  {
    Res_core.Res.default_config with
    search =
      {
        Res_core.Search.default_config with
        max_segments = 6;
        max_nodes = 2_000;
        max_suffixes = 8;
      };
    stop_at_first_cause = false;
    max_attempts = 2;
  }

(** The never-killed reference run.  Rendered with its work counters: a
    resumed analysis must neither redo nor skip work. *)
let kr_reference w =
  {
    Differential.bytes =
      fst (workload_analysis ~config:kr_config ~counters:true w);
    counts = [];
  }

(** One kill-and-resume chain: run the analysis under a fuel budget that
    dies after [k] expanded nodes, then keep reloading the checkpoint and
    resuming — each leg under the {e same} lethal fuel, so long analyses
    die and resume many times — until it completes.  With [torn], the
    first leg also dies halfway through its exhaustion-time checkpoint
    write, leaving a torn journal to recover.  A chain that leaves a torn
    [.tmp] or an invalid checkpoint on disk fails. *)
let kill_chain ~torn k (w : Res_workloads.Truth.t) =
  let every = 4 in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "kr-%d-%s-%d%s.ckpt" (Unix.getpid ()) w.Res_workloads.Truth.w_name k
         (if torn then "-torn" else ""))
  in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      (path :: Res_vm.Coredump_io.journal_siblings path)
  in
  cleanup ();
  Fun.protect ~finally:cleanup @@ fun () ->
  let dump = Res_workloads.Truth.coredump w in
  let prog = w.Res_workloads.Truth.w_prog in
  let ctx = Res_core.Backstep.make_ctx prog in
  let lethal_budget () = Res_core.Budget.create ~fuel:k () in
  let budget0 = lethal_budget () in
  let base =
    Res_persist.Checkpoint.checkpointer ~every ~path ~config:kr_config ~prog ~dump ()
  in
  let first_ckpt =
    if not torn then base
    else
      {
        base with
        Res_core.Res.ck_write =
          (fun st ->
            if Res_core.Budget.exhausted budget0 = None then
              base.Res_core.Res.ck_write st
            else begin
              (* The atomic writer's intermediate state is a
                 [path.<pid>.<n>.tmp] journal, so a mid-write death is a
                 torn journal — and no update of [path]. *)
              let full =
                Res_persist.Checkpoint.to_string
                  { Res_persist.Checkpoint.config = kr_config; prog; dump; state = st }
              in
              let oc = open_out_bin (Res_vm.Coredump_io.fresh_tmp_path path) in
              output_string oc (String.sub full 0 (String.length full / 2));
              close_out oc;
              Error "simulated death mid-checkpoint-write"
            end);
      }
  in
  let rec chase legs = function
    | Res_core.Res.Partial
        ((Res_core.Res.Fuel_exhausted | Res_core.Res.Deadline_exceeded), _)
      when legs < 500 ->
        (* The process died.  A new one reloads the checkpoint (running
           journal recovery) and resumes — under the same lethal fuel.
           Only the first leg dies mid-write: later legs check that
           recovery converges, not that it loops forever. *)
        let ck =
          match Res_persist.Checkpoint.load path with
          | Ok ck -> ck
          | Error e ->
              Fmt.failwith "checkpoint load failed after %d legs: %s" legs
                (Res_vm.Coredump_io.dump_error_to_string e)
        in
        let open Res_persist.Checkpoint in
        let cp =
          checkpointer ~every ~path ~config:ck.config ~prog:ck.prog
            ~dump:ck.dump ()
        in
        chase (legs + 1)
          (Res_core.Res.resume ~config:ck.config ~budget:(lethal_budget ())
             ~checkpointer:cp
             (Res_core.Backstep.make_ctx ck.prog)
             ck.dump ck.state)
    | o -> (legs, o)
  in
  let legs, outcome =
    chase 1
      (Res_core.Res.analyze ~config:kr_config ~budget:budget0 ~checkpointer:first_ckpt
         ctx dump)
  in
  if Res_vm.Coredump_io.journal_siblings path <> [] then
    failwith "torn .tmp journal left on disk";
  if Sys.file_exists path && Result.is_error (Res_persist.Checkpoint.load path) then
    failwith "final checkpoint does not validate";
  {
    Differential.bytes =
      Res_core.Report.reports_to_string ctx (Res_core.Res.analysis outcome);
    counts = [ ("legs", legs) ];
  }

(** Kill-and-resume equivalence: every workload's never-killed reports
    against one chain per kill point in [kills] plus a mid-write kill at
    [torn_kill]. *)
let kill_resume_campaign ?(kills = [ 1; 5; 17 ]) ?(torn_kill = 13)
    ?(workloads = default_workloads ()) () =
  Differential.run ~campaign:"kill-resume" ~reference:kr_reference
    ~variants:
      (List.map (fun k -> (Fmt.str "kill@%d" k, kill_chain ~torn:false k)) kills
      @ [ (Fmt.str "torn@%d" torn_kill, kill_chain ~torn:true torn_kill) ])
    (subjects workloads)

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
    [res analyze] of the same dump produces.

    Fork-backed by construction (the daemon and its workers are forked
    processes), so like the worker-kill campaign it must run before any
    domains are spawned in this process. *)

type sk_summary = {
  sk_submitted : int;
  sk_accepted : int;  (** across both daemon incarnations *)
  sk_shed : int;  (** typed [Rejected_overload] replies during the flood *)
  sk_completed : int;  (** accepted requests that reached a [Result] *)
  sk_lost : int;  (** accepted requests that never got a reply: must be 0 *)
  sk_mismatched : int;
      (** completed bodies differing from offline analyze: must be 0 *)
  sk_recovered : int;  (** requests re-admitted from the spool at restart *)
  sk_worker_restarts : int;  (** supervised restarts seen by incarnation 2 *)
  sk_breaker_tripped : bool;
  sk_breaker_recovered : bool;  (** half-open probe closed it again *)
  sk_drain_exit_ok : bool;  (** SIGTERM-free drain exited 0 *)
  sk_p50_ms : int;  (** client-observed submit-to-result latency *)
  sk_p99_ms : int;
  sk_failures : string list;  (** empty iff the service kept its contract *)
}

let percentile_ms p latencies =
  match List.sort compare latencies with
  | [] -> 0
  | l ->
      let n = List.length l in
      let idx = min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1) in
      List.nth l (max 0 idx)

let serve_soak_campaign ?log () : sk_summary =
  let module Server = Res_serve.Server in
  let module Client = Res_serve.Client in
  let module P = Res_serve.Protocol in
  Fleet.with_kit ?log "res-soak" @@ fun k ->
  let socket = Client.Unix_socket (Filename.concat k.Fleet.dir "serve.sock") in
  let fail fmt = Fleet.fail k fmt in
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
  let flood = items @ items in
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
    flood;
  if !shed = 0 then fail "flood at 2x capacity shed nothing";
  (* --- phase 2: SIGKILL the daemon mid-flight, restart on the spool.
     The small worker delay keeps the injected SIGKILL honest: without it
     the scheduler often runs the doomed child to completion before the
     daemon's kill lands --- *)
  Fleet.kill k pid1;
  let pid2 = start ~fi:[ 1 ] ~delay:0.05 in
  if not (ready ()) then fail "daemon 2 never became ready after restart";
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
  ignore (Client.drain ~timeout:5.0 socket);
  let drain_ok = Fleet.reap k "daemon 2" pid2 in
  {
    sk_submitted = !submitted;
    sk_accepted = List.length !accepted;
    sk_shed = !shed;
    sk_completed = !completed;
    sk_lost = !lost;
    sk_mismatched = !mismatched;
    sk_recovered = recovered;
    sk_worker_restarts = restarts;
    sk_breaker_tripped = tripped;
    sk_breaker_recovered = breaker_recovered;
    sk_drain_exit_ok = drain_ok;
    sk_p50_ms = percentile_ms 0.50 !latencies;
    sk_p99_ms = percentile_ms 0.99 !latencies;
    sk_failures = Fleet.failures k;
  }

let pp_sk_summary ppf s =
  Fmt.pf ppf
    "@[<v>serve soak: %d submitted, %d accepted, %d shed, %d completed@,\
     lost %d | body mismatches %d | recovered after SIGKILL %d | worker \
     restarts %d@,\
     breaker tripped %b, recovered %b | graceful drain %b@,\
     latency p50 %dms p99 %dms@]"
    s.sk_submitted s.sk_accepted s.sk_shed s.sk_completed s.sk_lost
    s.sk_mismatched s.sk_recovered s.sk_worker_restarts s.sk_breaker_tripped
    s.sk_breaker_recovered s.sk_drain_exit_ok s.sk_p50_ms s.sk_p99_ms

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

(* --- campaign: multi-node cluster soak ------------------------------- *)

(** Soak-test the cluster coordinator the way a real deployment will
    hurt it: SIGKILL the coordinator mid-corpus and resume it from its
    journal, SIGKILL a node mid-corpus and watch its units reschedule,
    and partition a node behind an injected worker stall so exchanges
    time out instead of failing fast.  The acceptance bar is the
    cluster contract: {e the merged TSV is byte-identical to a
    single-node [res triage] of the same corpus under every kill
    schedule}, with zero lost units and every retry/reschedule counted.

    Fork-backed by construction (nodes, the killed coordinator, and the
    killer are forked processes), so it must run before any domains are
    spawned in this process. *)

type ck_summary = {
  ck_units : int;  (** corpus size fed to every run *)
  ck_identical : int;  (** of [ck_runs] faulted runs, TSV = single-node *)
  ck_runs : int;
  ck_recovered : int;  (** rows replayed from the journal after the
                           coordinator was SIGKILLed *)
  ck_retries : int;  (** unit re-dispatches after the node SIGKILL *)
  ck_reschedules : int;  (** re-dispatches that moved to another node *)
  ck_nodes_dead : int;  (** nodes declared dead after the SIGKILL *)
  ck_stall_failures : int;  (** exchanges cut off by the unit deadline
                                during the partition phase *)
  ck_lost : int;  (** units degraded to worker-lost, all phases: must be 0 *)
  ck_duplicates : int;  (** late rows dropped by at-most-once *)
  ck_drain_ok : bool;  (** surviving nodes drained cleanly on SIGTERM *)
  ck_failures : string list;  (** empty iff the cluster kept its contract *)
}

let cluster_soak_campaign ?log () : ck_summary =
  let module Journal = Res_cluster.Journal in
  let module C = Res_cluster.Coordinator in
  Fleet.with_kit ?log "res-cluster" @@ fun k ->
  let fail fmt = Fleet.fail k fmt in
  (* --- corpus and the single-node truth ------------------------------ *)
  let items = Fleet.corpus ~n_per_bug:3 in
  (* fork-backed single-node baseline: domains must not exist yet *)
  let baseline =
    Res_parallel.Batch.run ~jobs:1 ~backend:Res_parallel.Pool.Forked items
  in
  let start_node ~name ~delay =
    Fleet.fork_node k { (soak_node k name) with fi_worker_delay = delay }
  in
  let pid1, addr1 = start_node ~name:"node1" ~delay:0.08 in
  let pid2, addr2 = start_node ~name:"node2" ~delay:0.08 in
  let pid3, addr3 = start_node ~name:"node3" ~delay:0.08 in
  List.iter (Fleet.node_ready k) [ addr1; addr2; addr3 ];
  let config journal_dir =
    {
      C.default_config with
      C.nodes = [ addr1; addr2; addr3 ];
      window = 2;
      (* two consecutive failed exchanges declare a node dead: a small
         corpus must still reach the declaration before it runs out *)
      node_attempts = 2;
      journal_dir = Some journal_dir;
      log = k.Fleet.log;
    }
  in
  let check_identical = Fleet.check_identical k ~baseline in
  (* how the campaign times its kills to land mid-corpus *)
  let journaled journal want () = Journal.count journal >= want in
  (* --- phase 1: SIGKILL the coordinator mid-corpus, resume from its
     journal.  The first incarnation is a forked child; the parent waits
     for a few journaled rows, kills it, and re-runs the same corpus on
     the same journal in-process --- *)
  let journal1 = Filename.concat k.Fleet.dir "journal1" in
  let co_pid =
    Fleet.spawn k (fun () -> ignore (C.run ~config:(config journal1) items))
  in
  if not (Fleet.await ~timeout:30. ~every:0.01 (journaled journal1 3)) then
    fail "journal %s never reached %d rows" journal1 3;
  Fleet.kill k co_pid;
  let t1 = C.run ~config:(config journal1) items in
  let identical1 = check_identical "coordinator-kill" t1 in
  if t1.C.stats.C.cs_recovered < 3 then
    fail "coordinator-kill: resumed run recovered only %d journaled row(s)"
      t1.C.stats.C.cs_recovered;
  (* --- phase 2: SIGKILL a node mid-corpus.  A forked killer waits for
     the run to be underway (journaled rows), then SIGKILLs node 2; its
     units must reschedule onto the survivors --- *)
  let journal2 = Filename.concat k.Fleet.dir "journal2" in
  let killer =
    Fleet.spawn k (fun () ->
        if Fleet.await ~timeout:30. ~every:0.01 (journaled journal2 1) then
          try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ())
  in
  let t2 = C.run ~config:(config journal2) items in
  ignore (Fleet.reap k "killer" killer);
  Fleet.kill k pid2;
  let identical2 = check_identical "node-kill" t2 in
  if t2.C.stats.C.cs_retries = 0 then
    fail "node-kill: no unit was ever retried";
  if t2.C.stats.C.cs_nodes_dead = 0 then
    fail "node-kill: the SIGKILLed node was never declared dead";
  (* --- phase 3: partition a node behind an injected stall.  Node 4's
     workers sleep far past the unit deadline, so every exchange routed
     to it times out mid-wait and fails over to the healthy nodes --- *)
  let pid4, addr4 = start_node ~name:"node4" ~delay:3.0 in
  Fleet.node_ready k addr4;
  let journal3 = Filename.concat k.Fleet.dir "journal3" in
  let t3 =
    C.run
      ~config:
        {
          (config journal3) with
          C.nodes = [ addr1; addr4; addr3 ];
          unit_deadline = 1.0;
        }
      items
  in
  let identical3 = check_identical "partition" t3 in
  if t3.C.stats.C.cs_node_failures = 0 then
    fail "partition: no exchange was ever cut off by the unit deadline";
  (* --- drain: the surviving healthy nodes must exit 0 on SIGTERM; the
     stalled node still has sleeping workers, so it is killed --- *)
  let drain1 = Fleet.reap k ~signal:Sys.sigterm "node1" pid1 in
  let drain3 = Fleet.reap k ~signal:Sys.sigterm "node3" pid3 in
  Fleet.kill k pid4;
  {
    ck_units = List.length items;
    ck_identical =
      List.length (List.filter Fun.id [ identical1; identical2; identical3 ]);
    ck_runs = 3;
    ck_recovered = t1.C.stats.C.cs_recovered;
    ck_retries = t2.C.stats.C.cs_retries;
    ck_reschedules = t2.C.stats.C.cs_reschedules;
    ck_nodes_dead = t2.C.stats.C.cs_nodes_dead;
    ck_stall_failures = t3.C.stats.C.cs_node_failures;
    ck_lost =
      t1.C.stats.C.cs_lost + t2.C.stats.C.cs_lost + t3.C.stats.C.cs_lost;
    ck_duplicates =
      t1.C.stats.C.cs_duplicates + t2.C.stats.C.cs_duplicates
      + t3.C.stats.C.cs_duplicates;
    ck_drain_ok = drain1 && drain3;
    ck_failures = Fleet.failures k;
  }

let pp_ck_summary ppf s =
  Fmt.pf ppf
    "@[<v>cluster soak: %d units, %d/%d faulted runs byte-identical to \
     single-node triage@,\
     coordinator kill: %d rows recovered from journal | node kill: %d \
     retries, %d reschedules, %d dead | partition: %d deadline cutoffs@,\
     lost %d | duplicates dropped %d | graceful drain %b@]"
    s.ck_units s.ck_identical s.ck_runs s.ck_recovered s.ck_retries
    s.ck_reschedules s.ck_nodes_dead s.ck_stall_failures s.ck_lost
    s.ck_duplicates s.ck_drain_ok


(* --- campaign: byzantine node ---------------------------------------- *)

(** Prove the coordinator survives a {e lying} node, not just a dead
    one.  Three TCP node daemons serve the corpus; one is forked with a
    result-corruption fault injected ([fi_corrupt_rows]) so it computes
    honestly and then falsifies the row it returns.  Two lies are
    tried, each against the defense built for it:

    - {b wrong unit name} (caught by the structural identity check that
      runs on every row): the reply claims to answer a unit that was
      never asked;
    - {b fabricated verdict fields} (caught only by the probabilistic
      replay spot-check, [spot_check = 1] here so every row is
      re-derived locally): the reply is structurally perfect but its
      bucket, cause, and node count are invented.

    In both phases the campaign asserts the lie was rejected
    ([cs_byzantine] > 0), the liar was quarantined via the registry's
    Dead path, its units rescheduled onto honest nodes, and the merged
    TSV came out byte-identical to fork-backed single-node triage with
    zero lost units — corrupted answers must cost retries, never
    results.

    Fork-backed by construction (every node is a forked process), so it
    must run before any domains are spawned in this process. *)

type bz_summary = {
  bz_units : int;  (** corpus size fed to every run *)
  bz_identical : int;  (** of [bz_runs], TSV byte-identical to single-node *)
  bz_runs : int;
  bz_rejected_name : int;  (** rows rejected by the identity check *)
  bz_rejected_fields : int;  (** rows rejected by the replay spot-check *)
  bz_reschedules : int;  (** re-dispatches that moved off the liar *)
  bz_nodes_dead : int;  (** liars declared dead, both phases *)
  bz_lost : int;  (** units degraded to worker-lost: must be 0 *)
  bz_drain_ok : bool;  (** honest nodes drained cleanly on SIGTERM *)
  bz_failures : string list;  (** empty iff every lie was caught *)
}

let byzantine_campaign ?log () : bz_summary =
  let module C = Res_cluster.Coordinator in
  Fleet.with_kit ?log "res-byzantine" @@ fun k ->
  let fail fmt = Fleet.fail k fmt in
  (* --- corpus and the single-node truth ------------------------------ *)
  let items = Fleet.corpus ~n_per_bug:3 in
  (* fork-backed single-node baseline: domains must not exist yet *)
  let baseline =
    Res_parallel.Batch.run ~jobs:1 ~backend:Res_parallel.Pool.Forked items
  in
  (* The coordinator routes a unit to node [fnv1a32 (wer_key dump) mod 3];
     put the liar at the index that owns the most units so the lie is
     guaranteed traffic, deterministically. *)
  let liar_slot =
    let counts = Array.make 3 0 in
    List.iter
      (fun (it : Res_parallel.Batch.item) ->
        let sig_ = Res_usecases.Triage.wer_key (Result.get_ok it.it_dump) in
        let i = Res_vm.Coredump_io.fnv1a32 sig_ mod 3 in
        counts.(i) <- counts.(i) + 1)
      items;
    let best = ref 0 in
    Array.iteri (fun i c -> if c > counts.(!best) then best := i) counts;
    !best
  in
  let start_node ~name ~corrupt =
    Fleet.fork_node k { (soak_node k name) with fi_corrupt_rows = corrupt }
  in
  let pid_h1, addr_h1 = start_node ~name:"honest1" ~corrupt:"" in
  let pid_h2, addr_h2 = start_node ~name:"honest2" ~corrupt:"" in
  List.iter (Fleet.node_ready k) [ addr_h1; addr_h2 ];
  (* honest nodes fill the non-liar slots in index order *)
  let fleet liar_addr =
    match liar_slot with
    | 0 -> [ liar_addr; addr_h1; addr_h2 ]
    | 1 -> [ addr_h1; liar_addr; addr_h2 ]
    | _ -> [ addr_h1; addr_h2; liar_addr ]
  in
  let config ~nodes ~spot_check journal_dir =
    {
      C.default_config with
      C.nodes;
      window = 2;
      node_attempts = 2;
      spot_check;
      journal_dir = Some journal_dir;
      log = k.Fleet.log;
    }
  in
  let check_identical = Fleet.check_identical k ~baseline in
  let check_caught phase (t : C.t) =
    if t.C.stats.C.cs_byzantine = 0 then
      fail "%s: no corrupted row was ever rejected" phase;
    if t.C.stats.C.cs_nodes_dead = 0 then
      fail "%s: the lying node was never quarantined" phase;
    if t.C.stats.C.cs_reschedules = 0 then
      fail "%s: no unit was ever rescheduled off the liar" phase
  in
  (* --- phase A: wrong-name corruption vs. the identity check --------- *)
  let pid_la, addr_la = start_node ~name:"liar-name" ~corrupt:"name" in
  Fleet.node_ready k addr_la;
  let ta =
    C.run
      ~config:
        (config ~nodes:(fleet addr_la) ~spot_check:0
           (Filename.concat k.Fleet.dir "journalA"))
      items
  in
  let identical_a = check_identical "wrong-name" ta in
  check_caught "wrong-name" ta;
  Fleet.kill k pid_la;
  (* --- phase B: plausible fabricated fields vs. the replay oracle.
     The row is structurally perfect, so only re-deriving the verdict
     locally can expose it; spot_check = 1 replays every row --- *)
  let pid_lb, addr_lb = start_node ~name:"liar-fields" ~corrupt:"fields" in
  Fleet.node_ready k addr_lb;
  let tb =
    C.run
      ~config:
        (config ~nodes:(fleet addr_lb) ~spot_check:1
           (Filename.concat k.Fleet.dir "journalB"))
      items
  in
  let identical_b = check_identical "fabricated-fields" tb in
  check_caught "fabricated-fields" tb;
  Fleet.kill k pid_lb;
  (* --- drain: the honest nodes must exit 0 on SIGTERM ---------------- *)
  let drain1 = Fleet.reap k ~signal:Sys.sigterm "honest1" pid_h1 in
  let drain2 = Fleet.reap k ~signal:Sys.sigterm "honest2" pid_h2 in
  {
    bz_units = List.length items;
    bz_identical =
      List.length (List.filter Fun.id [ identical_a; identical_b ]);
    bz_runs = 2;
    bz_rejected_name = ta.C.stats.C.cs_byzantine;
    bz_rejected_fields = tb.C.stats.C.cs_byzantine;
    bz_reschedules = ta.C.stats.C.cs_reschedules + tb.C.stats.C.cs_reschedules;
    bz_nodes_dead = ta.C.stats.C.cs_nodes_dead + tb.C.stats.C.cs_nodes_dead;
    bz_lost = ta.C.stats.C.cs_lost + tb.C.stats.C.cs_lost;
    bz_drain_ok = drain1 && drain2;
    bz_failures = Fleet.failures k;
  }

let pp_bz_summary ppf s =
  Fmt.pf ppf
    "@[<v>byzantine: %d units, %d/%d lying-node runs byte-identical to \
     single-node triage@,\
     wrong-name rows rejected %d | fabricated-field rows rejected %d | %d \
     reschedules off the liar | %d liar(s) quarantined@,\
     lost %d | graceful drain %b@]"
    s.bz_units s.bz_identical s.bz_runs s.bz_rejected_name
    s.bz_rejected_fields s.bz_reschedules s.bz_nodes_dead s.bz_lost
    s.bz_drain_ok

(* --- campaign: result-cache chaos ------------------------------------ *)

(** Chaos-test the content-addressed result cache the way a hostile disk
    will hurt it: tear its atomic-writer journals, flip bits in sealed
    entries, replace every entry with garbage, and inject ENOSPC / EIO /
    failed-fsync / torn-write faults into every cache I/O — then assert
    the crash-only contract: {e every} run, however damaged or starved
    the cache, produces a triage TSV byte-identical to the uncached
    baseline.  A garbage cache must behave exactly like a cold cache
    (quarantine + recompute + re-store), and a cache that cannot even
    create its directory must degrade to pure recompute — never to an
    exception, never to wrong bytes.

    Fork-backed by construction (batch workers are forked processes and
    the injector is process-global), so like the other fork campaigns it
    must run before any domains are spawned in this process. *)

type cc_summary = {
  cc_units : int;  (** corpus size fed to every run *)
  cc_runs : int;  (** damaged/faulted/warm runs compared to the baseline *)
  cc_identical : int;  (** of those, TSV byte-identical: must equal [cc_runs] *)
  cc_cold_stores : int;  (** entries stored by the pristine cold run *)
  cc_warm_hits : int;  (** rows served from cache by the pristine warm run *)
  cc_quarantined : int;  (** damaged entries moved aside across all phases *)
  cc_store_failures : int;  (** stores dropped on injected disk faults *)
  cc_injected : int;  (** cache I/O operations made to fail *)
  cc_failures : string list;  (** empty iff the cache kept its contract *)
}

let cache_chaos_campaign ?log () : cc_summary =
  let module Cache = Res_cache.Cache in
  let module Batch = Res_parallel.Batch in
  let module Shim = Res_core.Ioshim in
  Fleet.with_kit ?log "res-cache-chaos" @@ fun k ->
  let base = k.Fleet.dir in
  let log = k.Fleet.log in
  let fail fmt = Fleet.fail k fmt in
  let under d path =
    let n = String.length d in
    String.length path > n && String.equal (String.sub path 0 n) d
  in
  let tmp_left d =
    match Sys.readdir d with
    | exception Sys_error _ -> false
    | es ->
        Array.exists
          (fun e ->
            Filename.check_suffix e ".tmp"
            || Filename.extension e = ".tmp")
          es
  in
  let backend = Res_parallel.Pool.Forked in
  let items = Fleet.corpus ~n_per_bug:2 in
  let n_units = List.length items in
  (* the truth every run must reproduce: an uncached fork-backed triage *)
  let baseline = Batch.run ~jobs:1 ~backend items in
  let runs = ref 0 and identical = ref 0 in
  let quarantined = ref 0 and store_failures = ref 0 and injected = ref 0 in
  let drain_stats c =
    let s = Cache.stats c in
    quarantined := !quarantined + s.Cache.quarantined;
    store_failures := !store_failures + s.store_failures
  in
  let run_cached phase c =
    incr runs;
    log (Fmt.str "run: %s" phase);
    match Batch.run ~jobs:1 ~backend ~cache:c items with
    | t ->
        if String.equal t.Batch.tsv baseline.Batch.tsv then incr identical
        else fail "%s: TSV diverged from the uncached baseline" phase;
        drain_stats c;
        Some t
    | exception exn ->
        drain_stats c;
        fail "%s: escaped exception: %s" phase (Printexc.to_string exn);
        None
  in
  (* --- phase 1: cold fill, then a fully warm replay ------------------ *)
  let dir1 = Filename.concat base "steady" in
  let c_cold = Cache.openr dir1 in
  let cold_stores =
    match run_cached "cold" c_cold with
    | Some t ->
        if t.Batch.cache_hits <> 0 then
          fail "cold: %d hit(s) served from an empty cache" t.Batch.cache_hits;
        (Cache.stats c_cold).stores
    | None -> 0
  in
  if Cache.entry_count dir1 < n_units then
    fail "cold: only %d/%d entries on disk after the fill" (Cache.entry_count dir1)
      n_units;
  let warm_hits =
    match run_cached "warm" (Cache.openr dir1) with
    | Some t ->
        if t.Batch.cache_hits < n_units then
          fail "warm: only %d/%d rows came from the cache" t.Batch.cache_hits
            n_units;
        t.Batch.cache_hits
    | None -> 0
  in
  (* --- phase 2: torn journal, bit-flipped entry, garbage entry -------- *)
  (match
     Sys.readdir dir1 |> Array.to_list
     |> List.filter (fun e -> Filename.check_suffix e ".entry")
     |> List.sort compare
   with
  | [] -> fail "corrupt: no entries to damage"
  | e0 :: rest ->
      let p0 = Filename.concat dir1 e0 in
      (* a torn atomic-writer journal, as left by a writer killed
         mid-[write(2)]: reopen must delete it, never promote it *)
      let torn = Res_vm.Coredump_io.fresh_tmp_path p0 in
      let oc = open_out_bin torn in
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
      | _ -> fail "corrupt: could not read %s back" e0);
      (* and one entry replaced outright *)
      (match rest with
      | e1 :: _ ->
          let oc = open_out_bin (Filename.concat dir1 e1) in
          output_string oc "not a sealed entry at all\n";
          close_out oc
      | [] -> ()));
  let c_dam = Cache.openr dir1 in
  if tmp_left dir1 then fail "corrupt: torn .tmp journal survived reopen";
  (match run_cached "corrupt" c_dam with
  | Some t ->
      if (Cache.stats c_dam).Cache.quarantined = 0 then
        fail "corrupt: damaged entries were never quarantined";
      if t.Batch.cache_hits >= n_units then
        fail "corrupt: damaged entries were served as hits"
  | None -> ());
  (* --- phase 3: every entry replaced by deterministic garbage.  The
     contract under total corruption: quarantine everything, recompute
     everything, re-store everything — a garbage cache IS a cold cache *)
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
  let c_garbage = Cache.openr dir1 in
  (match run_cached "garbage" c_garbage with
  | Some t ->
      if t.Batch.cache_hits <> 0 then
        fail "garbage: %d garbage entr(ies) served as hits" t.Batch.cache_hits;
      if (Cache.stats c_garbage).Cache.quarantined < n_units then
        fail "garbage: only %d/%d garbage entries quarantined"
          (Cache.stats c_garbage).Cache.quarantined n_units
  | None -> ());
  (* the garbage run must have healed the cache: warm again, full hits *)
  (match run_cached "healed" (Cache.openr dir1) with
  | Some t ->
      if t.Batch.cache_hits < n_units then
        fail "healed: only %d/%d hits after the garbage run re-stored"
          t.Batch.cache_hits n_units
  | None -> ());
  (* --- phase 4: injected read faults on a warm cache.  Every lookup
     hits EIO; the cache must quarantine, recompute, and re-store ------- *)
  let c_eio = Cache.openr dir1 in
  let read_inj op path =
    match op with
    | Shim.Read when under dir1 path ->
        incr injected;
        Some Shim.Eio
    | _ -> None
  in
  (match
     Shim.with_injector read_inj (fun () -> run_cached "read-fault" c_eio)
   with
  | Some t ->
      if t.Batch.cache_hits <> 0 then
        fail "read-fault: %d hit(s) served through injected EIO"
          t.Batch.cache_hits
  | None -> ());
  (* --- phase 5: injected store faults, one fault family at a time.
     Every store fails (leaving realistic torn journals); the run must
     shrug (store_failures), stay byte-identical, and the next reopen
     must sweep the wreckage ------------------------------------------- *)
  List.iter
    (fun f ->
      let name = Shim.fault_name f in
      let cdir = Filename.concat base ("storm-" ^ name) in
      let c = Cache.openr cdir in
      let inj op path =
        match op with
        | Shim.Write when under cdir path ->
            incr injected;
            Some f
        | _ -> None
      in
      (match
         Shim.with_injector inj (fun () ->
             run_cached (Fmt.str "store-fault %s" name) c)
       with
      | Some _ ->
          if (Cache.stats c).store_failures = 0 then
            fail "store-fault %s: no store ever failed under injection" name;
          if (Cache.stats c).stores <> 0 then
            fail "store-fault %s: %d store(s) claimed success under injection"
              name (Cache.stats c).stores
      | None -> ());
      (* reopen sweeps torn journals; the cache is simply still cold *)
      let c2 = Cache.openr cdir in
      if tmp_left cdir then
        fail "store-fault %s: torn .tmp journals survived reopen" name;
      (match run_cached (Fmt.str "recold %s" name) c2 with
      | Some _ ->
          if Cache.entry_count cdir < n_units then
            fail "recold %s: only %d/%d entries stored once the disk healed"
              name (Cache.entry_count cdir) n_units
      | None -> ()))
    [ Shim.Enospc; Shim.Eio; Shim.Fsync_fail; Shim.Torn 11 ];
  (* --- phase 6: a randomized (but deterministic) storm: roughly one in
     three cache I/Os fails, fault family drawn per-operation ----------- *)
  let dir6 = Filename.concat base "storm-random" in
  let storm_rng = { s = 0xBADD15C } in
  let storm_inj op path =
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
  Shim.with_injector storm_inj (fun () ->
      ignore (run_cached "random-storm cold" (Cache.openr dir6));
      ignore (run_cached "random-storm warm" (Cache.openr dir6)));
  let c6 = Cache.openr dir6 in
  if tmp_left dir6 then fail "random-storm: torn .tmp journals survived reopen";
  ignore (run_cached "random-storm healed" c6);
  (* --- phase 7: the cache directory itself cannot be created.  openr
     must not raise, and the run must degrade to pure recompute --------- *)
  let dir7 = Filename.concat base "no-dir" in
  let mkdir_inj op path =
    match op with
    | Shim.Mkdir when String.equal path dir7 || under dir7 path ->
        incr injected;
        Some Shim.Eio
    | _ -> None
  in
  let c7 = Shim.with_injector mkdir_inj (fun () -> Cache.openr dir7) in
  (match run_cached "no-dir" c7 with
  | Some t ->
      if t.Batch.cache_hits <> 0 then
        fail "no-dir: hits from a cache whose directory does not exist";
      if (Cache.stats c7).store_failures = 0 then
        fail "no-dir: stores into a missing directory claimed success"
  | None -> ());
  {
    cc_units = n_units;
    cc_runs = !runs;
    cc_identical = !identical;
    cc_cold_stores = cold_stores;
    cc_warm_hits = warm_hits;
    cc_quarantined = !quarantined;
    cc_store_failures = !store_failures;
    cc_injected = !injected;
    cc_failures = Fleet.failures k;
  }

let pp_cc_summary ppf s =
  Fmt.pf ppf
    "@[<v>cache chaos: %d units, %d/%d damaged and faulted runs \
     byte-identical to the uncached baseline@,\
     cold stores %d | warm hits %d | quarantined %d | store failures %d | \
     faults injected %d@,\
     failures: %d@]"
    s.cc_units s.cc_identical s.cc_runs s.cc_cold_stores s.cc_warm_hits
    s.cc_quarantined s.cc_store_failures s.cc_injected
    (List.length s.cc_failures)
