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

let found_definite_in reports =
  List.exists
    (fun r ->
      match r.root_cause with
      | Some c -> definite_cause c && r.deterministic
      | None -> false)
    reports

(** The retry-with-escalation / iterative-deepening schedule: every
    attempt deepens from depth 1 with no reports. *)
let run config budget ctx (dump : Res_vm.Coredump.t) : outcome =
  let t0 = Sys.time () in
  let totals = Search.new_stats () in
  let truncated = ref false in
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
    }
  in
  let rec attempt i max_nodes =
    let search_config = { config.search with Search.max_nodes } in
    let rec deepen depth acc =
      if depth > search_config.Search.max_segments || not (Budget.ok budget)
      then (acc, depth - 1)
      else begin
        let result =
          Search.search
            ~config:{ search_config with Search.max_segments = depth }
            ~budget ctx dump
        in
        Search.add_stats ~into:totals result.Search.stats;
        if not result.Search.complete then truncated := true;
        let reports =
          List.map report_of result.Search.suffixes
          |> List.filter (fun r -> r.verdict.Replay.reproduced)
        in
        let acc = acc @ reports in
        if config.stop_at_first_cause && found_definite_in acc then (acc, depth)
        else deepen (depth + 1) acc
      end
    in
    let reports, depth = deepen 1 [] in
    match Budget.exhausted budget with
    | Some Budget.Deadline ->
        Partial (Deadline_exceeded, finish_analysis reports depth)
    | Some Budget.Fuel -> Partial (Fuel_exhausted, finish_analysis reports depth)
    | None ->
        if found_definite_in reports || not !truncated then
          Complete (finish_analysis reports depth)
        else if i + 1 < config.max_attempts then begin
          (* Escalate: double the search budget and go again, from
             scratch — the escalated attempt re-derives its own reports. *)
          truncated := false;
          attempt (i + 1) (max_nodes * 2)
        end
        else Partial (Search_truncated, finish_analysis reports depth)
  in
  attempt 0 config.search.Search.max_nodes

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
    truncation). *)
let analyze ?(config = default_config) ?budget ctx (dump : Res_vm.Coredump.t) :
    outcome =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  match check_dump ctx dump with
  | Error msg -> Failed (Bad_dump msg)
  | Ok () -> guarded (fun () -> run config budget ctx dump)

(** The best root cause of an analysis, if any. *)
let best_cause analysis =
  List.find_map (fun r -> r.root_cause) analysis.reports
