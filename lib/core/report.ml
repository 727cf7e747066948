(** Human-readable debugging reports (paper §3.3).

    Renders an analysis the way a developer would consume it in a
    debugger: the failure, the deterministic execution suffix, the thread
    schedule, the recently read/written state (which RES "automatically
    focuses developers' attention on"), and the classified root cause.

    Every printer writes into one [Buffer].  The text is the one an
    earlier renderer printed through vertical [Format] boxes opened at
    column 0, where every break hint is a newline: so the tids of
    [schedule:] are one a line, and the items of a [,]-separated list
    (inputs, write and read sets, a deadlock's tids) are separated by
    [",\n"]. *)

let comma = ",\n"

let add_list b ~sep add = function
  | [] -> ()
  | x :: xs ->
      add b x;
      List.iter
        (fun x ->
          Buffer.add_string b sep;
          add b x)
        xs

let add_int b n = Buffer.add_string b (string_of_int n)

let add_report ctx b (r : Res.report) =
  let layout = ctx.Backstep.layout in
  let add_addrs what addrs =
    Buffer.add_string b what;
    add_list b ~sep:comma
      (fun b a -> Buffer.add_string b (Res_mem.Layout.describe layout a))
      addrs;
    Buffer.add_char b '\n'
  in
  Buffer.add_string b "failure: ";
  Res_vm.Crash.add ~sep:comma b r.suffix.Suffix.crash;
  Buffer.add_char b '\n';
  Suffix.add b r.suffix;
  Buffer.add_string b "\nschedule: ";
  add_list b ~sep:"\n" add_int (Suffix.schedule r.suffix);
  Buffer.add_char b '\n';
  (match Suffix.input_script r.suffix with
  | [] -> ()
  | inputs ->
      Buffer.add_string b "inputs: ";
      add_list b ~sep:comma add_int inputs;
      Buffer.add_char b '\n');
  add_addrs "write set: " (Suffix.write_set r.suffix);
  add_addrs "read set: " (Suffix.read_set r.suffix);
  Buffer.add_string b "replayed: ";
  Buffer.add_string b
    (if r.verdict.Replay.reproduced then "yes, exact coredump match" else "NO");
  if r.deterministic then Buffer.add_string b " (deterministic)";
  Buffer.add_string b "\nroot cause: ";
  Buffer.add_string b
    (match r.root_cause with
    | Some cause -> Rootcause.signature cause
    | None -> "(not reproduced)");
  Buffer.add_char b '\n'

let add_reports ctx b reports = add_list b ~sep:"\n\n" (add_report ctx) reports

let add_analysis ctx b (a : Res.analysis) =
  Printf.bprintf b
    "=== RES analysis ===\n\
     suffix depth reached: %d\n\
     search nodes: %d, candidates: %d, statically pruned: %d, suffixes \
     synthesized: %d\n\
     cpu time: %.3fs\n\
     reproduced suffixes: %d\n\n"
    a.Res.depth_reached a.Res.nodes_expanded a.Res.candidates_tried
    a.Res.nodes_pruned a.Res.suffixes_synthesized a.Res.cpu_seconds
    (List.length a.Res.reports);
  add_reports ctx b a.Res.reports

let render add =
  let b = Buffer.create 4096 in
  add b;
  Buffer.contents b

(** One report's text, ending with a newline. *)
let report_to_string ctx r = render (fun b -> add_report ctx b r)

let analysis_to_string ctx a =
  render (fun b ->
      add_analysis ctx b a;
      Buffer.add_char b '\n')

(** Deterministic display order: definite causes first, then longer
    suffixes, ties broken by the rendered report text — so two analyses
    with the same reports always print identically, whatever order the
    search emitted them in.  A report's text is rendered only if it ties
    with a different report on both keys, and then once per call however
    often the list holds it ({!Res.run} lists a repeated suffix's report
    as the same value). *)
let display_sort ctx (a : Res.analysis) =
  let score (r : Res.report) =
    match r.Res.root_cause with
    | Some c when Res.definite_cause c -> 2
    | Some _ -> 1
    | None -> 0
  in
  let keyed, _ =
    List.fold_left
      (fun (keyed, texts) (r : Res.report) ->
        let text =
          match List.assq_opt r texts with
          | Some text -> text
          | None -> lazy (report_to_string ctx r)
        in
        ( (r, score r, Suffix.length r.Res.suffix, text) :: keyed,
          (r, text) :: texts ))
      ([], []) a.Res.reports
  in
  let reports =
    List.stable_sort
      (fun (ra, sa, la, ta) (rb, sb, lb, tb) ->
        match compare sb sa with
        | 0 -> (
            match compare lb la with
            | 0 when ra == rb -> 0
            | 0 -> String.compare (Lazy.force ta) (Lazy.force tb)
            | c -> c)
        | c -> c)
      (List.rev keyed)
    |> List.map (fun (r, _, _, _) -> r)
  in
  { a with Res.reports }

(** The bit-stable projection of an analysis: counters and sorted reports,
    no timing.  Two runs that did the same work render identically here. *)
let reports_to_string ctx (a : Res.analysis) =
  let a = display_sort ctx a in
  render (fun b ->
      Printf.bprintf b "depth %d nodes %d candidates %d synthesized %d\n\n"
        a.Res.depth_reached a.Res.nodes_expanded a.Res.candidates_tried
        a.Res.suffixes_synthesized;
      add_reports ctx b a.Res.reports;
      Buffer.add_char b '\n')

(** The report {e bodies} only, display-sorted, without the work counters.
    Two analyses that found the same defects render identically here even
    if they did different amounts of work to find them — this is what the
    static-prune equivalence check compares (pruning must change the
    counters and nothing else). *)
let report_list_to_string ctx (a : Res.analysis) =
  let a = display_sort ctx a in
  render (fun b ->
      add_reports ctx b a.Res.reports;
      Buffer.add_char b '\n')

let outcome_to_string ctx (o : Res.outcome) =
  render (fun b ->
      (match o with
      | Res.Complete a ->
          Buffer.add_string b "outcome: complete\n";
          add_analysis ctx b a
      | Res.Partial (reason, a) ->
          Printf.bprintf b "outcome: PARTIAL — %s\nbest partial results follow\n"
            (Fmt.str "%a" Res.pp_partial_reason reason);
          add_analysis ctx b a
      | Res.Failed e ->
          Printf.bprintf b "outcome: FAILED — %s" (Fmt.str "%a" Res.pp_error e));
      Buffer.add_char b '\n')

(** Display-sort the reports inside an outcome ([Failed] is unchanged), so
    every surface that prints an outcome — the CLI, the triage daemon —
    orders reports identically regardless of search emission order. *)
let sorted_outcome ctx (o : Res.outcome) =
  match o with
  | Res.Complete a -> Res.Complete (display_sort ctx a)
  | Res.Partial (r, a) -> Res.Partial (r, display_sort ctx a)
  | Res.Failed _ -> o
