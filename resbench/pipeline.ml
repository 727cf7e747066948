(** The analysis pipeline, layer by layer, for the traced run.

    [analyze] makes the calls {!Res_core.Res.analyze} makes — check the
    dump, then for each depth {!Search.search}, and for each suffix
    {!Replay.replay}, {!Rootcause.classify} and the determinism replays,
    with retry-with-escalation when a depth truncates — each inside a
    span, counting the work as it goes.  The traced run compares its
    results with [Res.analyze]'s and fails if they differ, so the
    per-layer numbers always describe the work the untraced run did. *)

open Res_core

type counts = {
  mutable nodes : int;
  mutable candidates : int;
  mutable pruned : int;
  mutable reversed : int;
  mutable slice_skipped : int;
  mutable suffixes : int;
  mutable replays : int;
}

let counts =
  {
    nodes = 0;
    candidates = 0;
    pruned = 0;
    reversed = 0;
    slice_skipped = 0;
    suffixes = 0;
    replays = 0;
  }

let reset () =
  counts.nodes <- 0;
  counts.candidates <- 0;
  counts.pruned <- 0;
  counts.reversed <- 0;
  counts.slice_skipped <- 0;
  counts.suffixes <- 0;
  counts.replays <- 0

let report_of ~dump_id ctx (config : Res.config) (dump : Res_vm.Coredump.t)
    suffix : Res.report =
  counts.replays <- counts.replays + 1;
  let verdict =
    Span.run ~dump:dump_id "replay.replay" (fun () ->
        Replay.replay ctx suffix dump)
  in
  if not verdict.Replay.reproduced then
    { suffix; verdict; root_cause = None; deterministic = false }
  else
    let cause =
      Span.run ~dump:dump_id "rootcause.classify" (fun () ->
          Rootcause.classify
            ~threads:(Res_vm.Coredump.threads dump)
            ~crash:dump.Res_vm.Coredump.crash ~heap:dump.Res_vm.Coredump.heap
            ~layout:ctx.Backstep.layout verdict.Replay.trace)
    in
    counts.replays <- counts.replays + config.determinism_runs;
    let deterministic, _ =
      Span.run ~dump:dump_id "replay.replay" (fun () ->
          Replay.replay_deterministically ~times:config.determinism_runs ctx
            suffix dump)
    in
    { suffix; verdict; root_cause = Some cause; deterministic }

(* Res.run's ordering of the finished reports: definite causes first,
   then longer suffixes. *)
let score (r : Res.report) =
  match r.root_cause with
  | Some c when Res.definite_cause c -> 2
  | Some _ -> 1
  | None -> 0

let analyze ~dump_id ?(config = Res.default_config) ctx dump : Res.outcome =
  match Res.check_dump ctx dump with
  | Error msg -> Failed (Bad_dump msg)
  | Ok () -> (
      let nodes = ref 0 and cands = ref 0 and pruned = ref 0 in
      let reversed = ref 0 and sliced = ref 0 and synth = ref 0 in
      let finish reports depth =
        let reports =
          List.stable_sort
            (fun a b ->
              match compare (score b) (score a) with
              | 0 ->
                  compare (Suffix.length b.Res.suffix)
                    (Suffix.length a.Res.suffix)
              | c -> c)
            reports
        in
        {
          Res.empty_analysis with
          reports;
          depth_reached = depth;
          nodes_expanded = !nodes;
          candidates_tried = !cands;
          nodes_pruned = !pruned;
          nodes_reversed = !reversed;
          slice_skipped = !sliced;
          suffixes_synthesized = !synth;
        }
      in
      let rec attempt i max_nodes =
        let search = { config.search with Search.max_nodes } in
        let truncated = ref false in
        let rec deepen depth acc =
          if depth > search.Search.max_segments then (acc, depth - 1)
          else
            let r =
              Span.run ~dump:dump_id "search.search" (fun () ->
                  Search.search
                    ~config:{ search with Search.max_segments = depth }
                    ctx dump)
            in
            let st = r.Search.stats in
            nodes := !nodes + st.Search.nodes;
            cands := !cands + st.Search.candidates;
            pruned := !pruned + st.Search.pruned;
            reversed := !reversed + st.Search.reversed;
            sliced := !sliced + st.Search.slice_skipped;
            synth := !synth + List.length r.Search.suffixes;
            if not r.Search.complete then truncated := true;
            let acc =
              acc
              @ List.filter
                  (fun (rep : Res.report) -> rep.verdict.Replay.reproduced)
                  (List.map (report_of ~dump_id ctx config dump) r.Search.suffixes)
            in
            if config.stop_at_first_cause && Res.found_definite_in acc then
              (acc, depth)
            else deepen (depth + 1) acc
        in
        let reports, depth = deepen 1 [] in
        if Res.found_definite_in reports || not !truncated then
          Res.Complete (finish reports depth)
        else if i + 1 < config.max_attempts then attempt (i + 1) (max_nodes * 2)
        else Res.Partial (Search_truncated, finish reports depth)
      in
      let outcome =
        try
          Span.run ~dump:dump_id "res.analyze" (fun () ->
              attempt 0 config.search.Search.max_nodes)
        with
        | Stack_overflow -> Failed (Internal "stack overflow during analysis")
        | exn -> Failed (Internal (Printexc.to_string exn))
      in
      counts.nodes <- counts.nodes + !nodes;
      counts.candidates <- counts.candidates + !cands;
      counts.pruned <- counts.pruned + !pruned;
      counts.reversed <- counts.reversed + !reversed;
      counts.slice_skipped <- counts.slice_skipped + !sliced;
      counts.suffixes <- counts.suffixes + !synth;
      outcome)

(** The work counters of an analysis, for comparing two runs of it. *)
let work (o : Res.outcome) =
  let a = Res.analysis o in
  ( Res.outcome_name o,
    a.depth_reached,
    a.nodes_expanded,
    a.candidates_tried,
    a.nodes_pruned,
    (a.nodes_reversed, a.slice_skipped, a.suffixes_synthesized) )

(** The batch-triage row of one analysis, exactly as
    {!Res_usecases.Triage.triage_one} and {!Res_parallel.Batch} derive it. *)
let row name dump (o : Res.outcome) : Res_parallel.Batch.row =
  let a = Res.analysis o in
  let bucket, cause =
    match Res.best_cause a with
    | Some c ->
        let s = Rootcause.signature c in
        (s, s)
    | None -> (Res_usecases.Triage.wer_key dump, "")
  in
  {
    row_name = name;
    row_outcome = Res.outcome_name o;
    row_bucket = bucket;
    row_cause = cause;
    row_nodes = a.nodes_expanded;
    row_pruned = a.nodes_pruned;
  }

(** The TSV batch triage prints for rows already sorted by name. *)
let tsv rows =
  Res_parallel.Batch.render rows
    (Res_usecases.Triage.bucket
       ~key:(fun (r : Res_parallel.Batch.row) -> r.row_bucket)
       rows
    |> List.map (fun (k, rs) ->
           (k, List.map (fun (r : Res_parallel.Batch.row) -> r.row_name) rs)))
