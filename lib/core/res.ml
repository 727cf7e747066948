(** The top-level RES pipeline: coredump in, replayable root-caused
    execution suffix out.

    [analyze] runs iterative deepening over the suffix length: synthesize
    suffixes of length 1, 2, ... (paper: "RES continues building up
    suffixes by moving backward through the execution"), replay each
    candidate to verify it deterministically reproduces the coredump, and
    classify the root cause from the replayed trace.  It stops as soon as a
    reproduced suffix exhibits a definite root cause, or when the depth
    budget is exhausted. *)

type report = {
  suffix : Suffix.t;
  verdict : Replay.verdict;
  root_cause : Rootcause.t option;  (** None when replay failed *)
  deterministic : bool;
      (** the replay reproduced the failure with every schedule pick and
          input read pinned to the suffix's scripts ({!Replay.verdict}'s
          [pinned] witness), and each of the [determinism_runs] extra
          replays agreed with it *)
}

type analysis = {
  reports : report list;  (** reproduced suffixes, best (deepest-cause) first *)
  depth_reached : int;
  nodes_expanded : int;
  candidates_tried : int;
  nodes_pruned : int;
      (** candidates the static layer refuted without evaluation *)
  nodes_reversed : int;
      (** backward steps decided by concrete reverse execution *)
  slice_skipped : int;
      (** instructions reverse steps skipped as outside the slice *)
  suffixes_synthesized : int;
  cpu_seconds : float;
  checkpoint : string option;
      (** path of the last checkpoint written during this analysis *)
}

type config = {
  search : Search.config;
  determinism_runs : int;
      (** extra replays beyond the witnessed one, each of which must agree
          with it *)
  stop_at_first_cause : bool;
      (** stop deepening once a reproduced suffix has a concurrency or
          memory-safety root cause (not merely the crash site) *)
  max_attempts : int;
      (** retry-with-escalation: when the search exhausts its node budget
          without a definite cause, restart with doubled budgets up to this
          many attempts (wall-clock deadline permitting) *)
}

let default_config =
  {
    search = Search.default_config;
    determinism_runs = 0;
    stop_at_first_cause = true;
    max_attempts = 3;
  }

(** How an analysis ended.  [Complete] ran to a deliberate stop (definite
    cause found, or the full depth explored within budget); [Partial]
    carries the best reports found before a budget tripped; [Failed] could
    not analyze at all. *)
type partial_reason =
  | Deadline_exceeded  (** the wall-clock deadline tripped mid-search *)
  | Fuel_exhausted  (** the cooperative fuel budget tripped *)
  | Search_truncated
      (** the search node budget was exhausted on every attempt *)

type error =
  | Bad_dump of string  (** the coredump does not match the program *)
  | Internal of string  (** an unexpected failure inside the pipeline *)

let pp_partial_reason ppf = function
  | Deadline_exceeded -> Fmt.string ppf "wall-clock deadline exceeded"
  | Fuel_exhausted -> Fmt.string ppf "fuel budget exhausted"
  | Search_truncated -> Fmt.string ppf "search node budget exhausted"

let pp_error ppf = function
  | Bad_dump msg -> Fmt.pf ppf "bad coredump: %s" msg
  | Internal msg -> Fmt.pf ppf "internal error: %s" msg

(** Whether a cause is a definite defect (vs just the crash location). *)
let definite_cause = function
  | Rootcause.Data_race _ | Rootcause.Atomicity_violation _
  | Rootcause.Use_after_free_cause _ | Rootcause.Buffer_overflow_cause _
  | Rootcause.Double_free_cause _ | Rootcause.Deadlock_cause _ ->
      true
  | Rootcause.Division_by_zero_cause _ | Rootcause.Assertion_cause _
  | Rootcause.Abort_cause _ | Rootcause.Unclassified _ ->
      false

(** The report on [suffix], whose replay gave [verdict]. *)
let report_with ctx config (dump : Res_vm.Coredump.t) suffix verdict =
  if not verdict.Replay.reproduced then
    { suffix; verdict; root_cause = None; deterministic = false }
  else
    let root_cause =
      Some
        (Rootcause.classify
           ~threads:(Res_vm.Coredump.threads dump)
           ~crash:dump.Res_vm.Coredump.crash ~heap:dump.Res_vm.Coredump.heap
           ~layout:ctx.Backstep.layout verdict.Replay.trace)
    in
    let deterministic =
      verdict.Replay.pinned
      && List.for_all (Replay.agree verdict)
           (snd
              (Replay.replay_deterministically ~times:config.determinism_runs
                 ctx suffix dump))
    in
    { suffix; verdict; root_cause; deterministic }

let report_of ctx config dump suffix =
  report_with ctx config dump suffix (Replay.replay ctx suffix dump)

type outcome =
  | Complete of analysis
  | Partial of partial_reason * analysis
  | Failed of error

(** Point-in-time image of a whole analysis, sufficient to continue it in
    another process after this one dies.  It records where in the
    escalation/deepening schedule the analysis was ([ck_attempt],
    [ck_max_nodes], [ck_depth]), the suffixes behind the reports of every
    {e completed} depth (reports are recomputed on resume — replay is
    deterministic, so recomputation is cheaper than persisting verdicts),
    the search counters over completed depths, the suspended search of
    the depth in progress (whose own counters cover the partial depth, so
    nothing is double-counted; between depths it is the carry the last
    depth left, suspended before its first pop — {!Search.search}), the
    budget's remaining fuel, and the fresh-symbol counter (restored
    absolutely so a resumed run mints identical symbol ids and produces
    bit-identical reports). *)
type ckpt_state = {
  ck_attempt : int;  (** 0-based escalation attempt in progress *)
  ck_max_nodes : int;  (** the attempt's (possibly doubled) node budget *)
  ck_depth : int;  (** suffix depth in progress *)
  ck_suffixes : Suffix.t list;  (** reproduced suffixes of completed depths *)
  ck_truncated : bool;  (** a depth of this attempt hit the node budget *)
  ck_stats : Search.stats;  (** search counters summed over completed depths *)
  ck_suspended : Search.suspended option;
      (** the search of depth [ck_depth], where it stopped; [None] only at
          the start of an attempt, at depth 1 *)
  ck_fuel : int option;  (** remaining fuel at checkpoint time *)
  ck_expr_counter : int;  (** {!Expr} fresh-variable counter *)
}

(** How an analysis persists itself.  [ck_write] serializes a state to
    stable storage and returns where it landed; the analysis records the
    path in {!analysis.checkpoint} and ignores write errors (a failed
    checkpoint must never kill the analysis it protects). *)
type checkpointer = {
  ck_every : int;
      (** auto-checkpoint every this many ticks; a tick is a frontier pop (a
          visit, an eval or a seal) *)
  ck_write : ckpt_state -> (string, string) result;
}

let empty_analysis =
  {
    reports = [];
    depth_reached = 0;
    nodes_expanded = 0;
    candidates_tried = 0;
    nodes_pruned = 0;
    nodes_reversed = 0;
    slice_skipped = 0;
    suffixes_synthesized = 0;
    cpu_seconds = 0.;
    checkpoint = None;
  }

(** The analysis carried by an outcome ([Failed] carries an empty one). *)
let analysis = function Complete a | Partial (_, a) -> a | Failed _ -> empty_analysis

let outcome_name = function
  | Complete _ -> "complete"
  | Partial _ -> "partial"
  | Failed _ -> "failed"

(** The analysis ran out of wall clock or fuel (as opposed to finishing,
    truncating on the node budget, or failing outright).  This is what a
    serving layer's circuit breaker counts as a "solver timeout": the
    request burned its whole budget without reaching a deliberate stop. *)
let is_budget_partial = function
  | Partial ((Deadline_exceeded | Fuel_exhausted), _) -> true
  | Complete _ | Partial (Search_truncated, _) | Failed _ -> false

let pp_outcome ppf = function
  | Complete _ -> Fmt.string ppf "complete"
  | Partial (r, a) ->
      Fmt.pf ppf "partial (%a; %d report(s) salvaged)" pp_partial_reason r
        (List.length a.reports)
  | Failed e -> Fmt.pf ppf "failed: %a" pp_error e

(** Cheap structural validation of a dump against the program under
    analysis: every program location the dump mentions must resolve.  A
    truncated or bit-corrupted dump that survived parsing is usually caught
    here, before the search builds on nonsense. *)
let check_dump ctx (dump : Res_vm.Coredump.t) =
  let check_pc what (pc : Res_ir.Pc.t) =
    match Res_ir.Prog.func_opt ctx.Backstep.prog pc.Res_ir.Pc.func with
    | None -> Error (Fmt.str "%s references unknown function %s" what pc.func)
    | Some f -> (
        match Res_ir.Func.block_opt f pc.Res_ir.Pc.block with
        | None ->
            Error (Fmt.str "%s references unknown block %s:%s" what pc.func pc.block)
        | Some b ->
            if pc.Res_ir.Pc.idx < 0 || pc.idx > Res_ir.Block.length b then
              Error
                (Fmt.str "%s index %d out of range for %s:%s" what pc.idx pc.func
                   pc.block)
            else Ok ())
  in
  let ( let* ) = Result.bind in
  let* () = check_pc "crash site" dump.Res_vm.Coredump.crash.Res_vm.Crash.pc in
  let* () =
    List.fold_left
      (fun acc (th : Res_vm.Thread.t) ->
        List.fold_left
          (fun acc (fr : Res_vm.Frame.t) ->
            let* () = acc in
            check_pc
              (Fmt.str "thread %d frame" th.Res_vm.Thread.tid)
              (Res_ir.Pc.v ~func:fr.Res_vm.Frame.func ~block:fr.Res_vm.Frame.block
                 ~idx:fr.Res_vm.Frame.idx))
          acc th.Res_vm.Thread.frames)
      (Ok ())
      (Res_vm.Coredump.threads dump)
  in
  if dump.Res_vm.Coredump.steps < 0 then Error "negative step count" else Ok ()

(** The fresh state an [analyze] starts from: attempt 0, depth 1, nothing
    accumulated. *)
let initial_state config =
  {
    ck_attempt = 0;
    ck_max_nodes = config.search.Search.max_nodes;
    ck_depth = 1;
    ck_suffixes = [];
    ck_truncated = false;
    ck_stats = Search.new_stats ();
    ck_suspended = None;
    ck_fuel = None;
    ck_expr_counter = Res_solver.Expr.counter_value ();
  }

let found_definite_in reports =
  List.exists
    (fun r ->
      match r.root_cause with
      | Some c -> definite_cause c && r.deterministic
      | None -> false)
    reports

(** The engine shared by {!analyze} and {!resume}: run the
    retry-with-escalation / iterative-deepening schedule starting from
    [st0] (fresh for [analyze], a reloaded checkpoint for [resume]),
    writing checkpoints through [checkpointer] every [ck_every] ticks and
    at the moment a budget trips. *)
let run config budget checkpointer ctx (dump : Res_vm.Coredump.t)
    (st0 : ckpt_state) : outcome =
  let t0 = Sys.time () in
  (* Counters over completed depths; the in-flight depth's share lives in
     the suspended search state, so a resumed run re-reports it.  Every
     state built from them takes a copy: [susp_final] is written after
     later depths have been added here. *)
  let totals = Search.copy_stats st0.ck_stats in
  let truncated = ref st0.ck_truncated in
  (* A deeper search re-emits an earlier depth's dead-end and
     program-start suffixes as the physically same [Suffix.t]: replay and
     classify each once per run, and report it again as the same value.
     A suffix one segment deeper than one replayed before replays only
     its new segment (Replay.Chain). *)
  let reported = ref [] in
  let chain = Replay.Chain.create () in
  let report_of suffix =
    match List.assq_opt suffix !reported with
    | Some r -> r
    | None ->
        let r =
          report_with ctx config dump suffix
            (Replay.Chain.replay chain ctx suffix dump)
        in
        reported := (suffix, r) :: !reported;
        r
  in
  let last_ckpt = ref None in
  let ckpt_tick = ref 0 in
  let mk_state ~attempt ~max_nodes ~depth ~acc ~suspended =
    {
      ck_attempt = attempt;
      ck_max_nodes = max_nodes;
      ck_depth = depth;
      ck_suffixes = List.map (fun r -> r.suffix) acc;
      ck_truncated = !truncated;
      ck_stats = Search.copy_stats totals;
      ck_suspended = suspended;
      ck_fuel = Budget.remaining_fuel budget;
      ck_expr_counter = Res_solver.Expr.counter_value ();
    }
  in
  let write_state st =
    match checkpointer with
    | None -> ()
    | Some c -> (
        (* A failed checkpoint write must never kill the analysis it
           protects: keep the previous good checkpoint and move on. *)
        match c.ck_write st with
        | Ok path -> last_ckpt := Some path
        | Error _ -> ())
  in
  (* Checkpoint every [ck_every] ticks; a tick is a frontier pop. *)
  let tick c state =
    incr ckpt_tick;
    if !ckpt_tick >= c.ck_every then begin
      ckpt_tick := 0;
      write_state (state ())
    end
  in
  let hook ~attempt ~max_nodes ~depth ~acc =
    Option.map
      (fun c (susp : Search.suspended) ->
        tick c (fun () ->
            mk_state ~attempt ~max_nodes ~depth ~acc ~suspended:(Some susp)))
      checkpointer
  in
  (* The state a resume from the exhaustion instant needs — captured as
     close to the trip as possible (in-search, with the live frontier)
     and written out just before returning [Partial]. *)
  let susp_final = ref None in
  let finish_analysis reports depth =
    (* Definite causes first, then longer suffixes first. *)
    let score r =
      match r.root_cause with
      | Some c when definite_cause c -> 2
      | Some _ -> 1
      | None -> 0
    in
    let reports =
      List.stable_sort
        (fun a b ->
          match compare (score b) (score a) with
          | 0 -> compare (Suffix.length b.suffix) (Suffix.length a.suffix)
          | c -> c)
        reports
    in
    {
      reports;
      depth_reached = depth;
      nodes_expanded = totals.Search.nodes;
      candidates_tried = totals.candidates;
      nodes_pruned = totals.pruned;
      nodes_reversed = totals.reversed;
      slice_skipped = totals.slice_skipped;
      suffixes_synthesized = totals.emitted;
      cpu_seconds = Sys.time () -. t0;
      checkpoint = !last_ckpt;
    }
  in
  let rec attempt i max_nodes ~depth0 ~acc0 ~resume =
    let search_config = { config.search with Search.max_nodes } in
    let rec deepen depth acc ~resume =
      if depth > search_config.Search.max_segments then (acc, depth - 1)
      else if not (Budget.ok budget) then begin
        (* The budget tripped before this depth's search: the resume point
           is the search it was handed or, with none, the carry the previous
           depth left — unless a more precise in-search suspension was
           already captured. *)
        (match !susp_final with
        | None ->
            let suspended =
              match resume with
              | Some _ -> resume
              | None when depth > 1 -> Search.next_layer ctx
              | None -> None
            in
            susp_final :=
              Some (mk_state ~attempt:i ~max_nodes ~depth ~acc ~suspended)
        | Some _ -> ());
        (acc, depth - 1)
      end
      else begin
        let result =
          Search.search
            ~config:{ search_config with Search.max_segments = depth }
            ~budget ?resume
            ?on_node:(hook ~attempt:i ~max_nodes ~depth ~acc)
            ctx dump
        in
        (* Capture the suspension point before folding this depth's stats
           into the totals: a resumed search re-reports them. *)
        (match result.Search.suspended with
        | Some s when Budget.exhausted budget <> None ->
            susp_final :=
              Some
                (mk_state ~attempt:i ~max_nodes ~depth ~acc
                   ~suspended:(Some s))
        | _ -> ());
        Search.add_stats ~into:totals result.Search.stats;
        if not result.Search.complete then truncated := true;
        let reports =
          List.map report_of result.Search.suffixes
          |> List.filter (fun r -> r.verdict.Replay.reproduced)
        in
        let acc = acc @ reports in
        if config.stop_at_first_cause && found_definite_in acc then (acc, depth)
        else deepen (depth + 1) acc ~resume:None
      end
    in
    let reports, depth = deepen depth0 acc0 ~resume in
    let found_definite = found_definite_in reports in
    match Budget.exhausted budget with
    | Some Budget.Deadline ->
        (match !susp_final with Some st -> write_state st | None -> ());
        Partial (Deadline_exceeded, finish_analysis reports depth)
    | Some Budget.Fuel ->
        (match !susp_final with Some st -> write_state st | None -> ());
        Partial (Fuel_exhausted, finish_analysis reports depth)
    | None ->
        if found_definite || not !truncated then
          Complete (finish_analysis reports depth)
        else if i + 1 < config.max_attempts then begin
          (* Escalate: double the search budget and go again, from
             scratch — the escalated attempt re-derives its own reports. *)
          truncated := false;
          attempt (i + 1) (max_nodes * 2) ~depth0:1 ~acc0:[] ~resume:None
        end
        else Partial (Search_truncated, finish_analysis reports depth)
  in
  let acc0 = List.map report_of st0.ck_suffixes in
  attempt st0.ck_attempt st0.ck_max_nodes ~depth0:st0.ck_depth ~acc0
    ~resume:st0.ck_suspended

let guarded f =
  try f () with
  | Stack_overflow -> Failed (Internal "stack overflow during analysis")
  | exn -> Failed (Internal (Printexc.to_string exn))

(** Analyze a coredump: synthesize, replay, classify — always returning a
    typed outcome.  [budget] bounds the whole analysis (wall-clock deadline
    and/or cooperative fuel); when it trips, the best reports found so far
    come back as [Partial].  A search that merely exhausts its node budget
    without a definite cause is retried with doubled budgets, up to
    [config.max_attempts] attempts (graceful degradation instead of silent
    truncation).  [checkpointer] persists the analysis periodically and at
    the instant a budget trips, so a later {!resume} can continue it. *)
let analyze ?(config = default_config) ?budget ?checkpointer ctx
    (dump : Res_vm.Coredump.t) : outcome =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  match check_dump ctx dump with
  | Error msg -> Failed (Bad_dump msg)
  | Ok () ->
      guarded (fun () ->
          run config budget checkpointer ctx dump (initial_state config))

(** Continue an analysis from a reloaded checkpoint.  Restores the
    fresh-symbol counter first, recomputes the reports of completed depths
    from the checkpointed suffixes (replay is deterministic), then
    re-enters the schedule exactly where the checkpoint suspended it —
    producing, by construction, the same reports an uninterrupted run
    would.  [budget] defaults to unlimited: the interrupted run's budget
    already tripped, and a resume usually wants to finish the job. *)
let resume ?(config = default_config) ?budget ?checkpointer ctx
    (dump : Res_vm.Coredump.t) (st : ckpt_state) : outcome =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  match check_dump ctx dump with
  | Error msg -> Failed (Bad_dump msg)
  | Ok () ->
      guarded (fun () ->
          Res_solver.Expr.restore_counter st.ck_expr_counter;
          run config budget checkpointer ctx dump st)

(** The best root cause of an analysis, if any. *)
let best_cause analysis =
  List.find_map (fun r -> r.root_cause) analysis.reports
