(** Human-readable debugging reports (paper §3.3).

    Renders an analysis the way a developer would consume it in a
    debugger: the failure, the deterministic execution suffix, the thread
    schedule, the recently read/written state (which RES "automatically
    focuses developers' attention on"), and the classified root cause. *)

let pp_addr_list layout ppf addrs =
  let pp_one ppf a = Fmt.string ppf (Res_mem.Layout.describe layout a) in
  Fmt.(list ~sep:comma pp_one) ppf addrs

let pp_report ctx ppf (r : Res.report) =
  let layout = ctx.Backstep.layout in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "failure: %a@," Res_vm.Crash.pp r.suffix.Suffix.crash;
  Fmt.pf ppf "%a@," Suffix.pp r.suffix;
  Fmt.pf ppf "schedule: %a@,"
    Fmt.(list ~sep:sp int)
    (Suffix.schedule r.suffix);
  (match Suffix.input_script r.suffix with
  | [] -> ()
  | inputs -> Fmt.pf ppf "inputs: %a@," Fmt.(list ~sep:comma int) inputs);
  Fmt.pf ppf "write set: %a@," (pp_addr_list layout) (Suffix.write_set r.suffix);
  Fmt.pf ppf "read set: %a@," (pp_addr_list layout) (Suffix.read_set r.suffix);
  Fmt.pf ppf "replayed: %s%s@,"
    (if r.verdict.Replay.reproduced then "yes, exact coredump match" else "NO")
    (if r.deterministic then " (deterministic)" else "");
  (match r.root_cause with
  | Some cause -> Fmt.pf ppf "root cause: %a@," Rootcause.pp cause
  | None -> Fmt.pf ppf "root cause: (not reproduced)@,");
  Fmt.pf ppf "@]"

let pp_analysis ctx ppf (a : Res.analysis) =
  Fmt.pf ppf
    "@[<v>=== RES analysis ===@,\
     suffix depth reached: %d@,\
     search nodes: %d, candidates: %d, statically pruned: %d, suffixes \
     synthesized: %d@,\
     cpu time: %.3fs@,\
     reproduced suffixes: %d@,@,%a@]"
    a.Res.depth_reached a.Res.nodes_expanded a.Res.candidates_tried
    a.Res.nodes_pruned a.Res.suffixes_synthesized a.Res.cpu_seconds
    (List.length a.Res.reports)
    Fmt.(list ~sep:(cut ++ cut) (pp_report ctx))
    a.Res.reports

let analysis_to_string ctx a = Fmt.str "%a@." (pp_analysis ctx) a

(** Deterministic display order: definite causes first, then longer
    suffixes, ties broken by the rendered report text — so two analyses
    with the same reports always print identically, whatever order the
    search emitted them in.  A report's text is rendered only if it ties
    with another on both keys, so a caller that prints the sorted reports
    renders each one once. *)
let display_sort ctx (a : Res.analysis) =
  let score (r : Res.report) =
    match r.Res.root_cause with
    | Some c when Res.definite_cause c -> 2
    | Some _ -> 1
    | None -> 0
  in
  let keyed =
    List.map
      (fun (r : Res.report) ->
        let text = lazy (Fmt.str "%a" (pp_report ctx) r) in
        (r, score r, Suffix.length r.Res.suffix, text))
      a.Res.reports
  in
  let reports =
    List.stable_sort
      (fun (_, sa, la, ta) (_, sb, lb, tb) ->
        match compare sb sa with
        | 0 -> (
            match compare lb la with
            | 0 -> String.compare (Lazy.force ta) (Lazy.force tb)
            | c -> c)
        | c -> c)
      keyed
    |> List.map (fun (r, _, _, _) -> r)
  in
  { a with Res.reports }

(** The bit-stable projection of an analysis: counters and sorted reports,
    no timing.  Two runs that did the same work render identically here —
    this is what kill-and-resume equivalence compares. *)
let reports_to_string ctx (a : Res.analysis) =
  let a = display_sort ctx a in
  Fmt.str
    "@[<v>depth %d nodes %d candidates %d synthesized %d@,@,%a@]@."
    a.Res.depth_reached a.Res.nodes_expanded a.Res.candidates_tried
    a.Res.suffixes_synthesized
    Fmt.(list ~sep:(cut ++ cut) (pp_report ctx))
    a.Res.reports

(** The report {e bodies} only, display-sorted, without the work counters.
    Two analyses that found the same defects render identically here even
    if they did different amounts of work to find them — this is what the
    static-prune equivalence check compares (pruning must change the
    counters and nothing else). *)
let report_list_to_string ctx (a : Res.analysis) =
  let a = display_sort ctx a in
  Fmt.str "@[<v>%a@]@."
    Fmt.(list ~sep:(cut ++ cut) (pp_report ctx))
    a.Res.reports

let pp_outcome ctx ppf (o : Res.outcome) =
  match o with
  | Res.Complete a ->
      Fmt.pf ppf "@[<v>outcome: complete@,%a@]" (pp_analysis ctx) a
  | Res.Partial (reason, a) ->
      Fmt.pf ppf "@[<v>outcome: PARTIAL — %a@,best partial results follow@,%a@]"
        Res.pp_partial_reason reason (pp_analysis ctx) a
  | Res.Failed e -> Fmt.pf ppf "outcome: FAILED — %a" Res.pp_error e

let outcome_to_string ctx o = Fmt.str "%a@." (pp_outcome ctx) o

(** Display-sort the reports inside an outcome ([Failed] is unchanged), so
    every surface that prints an outcome — the CLI, the triage daemon —
    orders reports identically regardless of search emission order. *)
let sorted_outcome ctx (o : Res.outcome) =
  match o with
  | Res.Complete a -> Res.Complete (display_sort ctx a)
  | Res.Partial (r, a) -> Res.Partial (r, display_sort ctx a)
  | Res.Failed _ -> o
