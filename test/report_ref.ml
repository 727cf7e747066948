(** The report renderer as it was before the per-call memo: every report
    is formatted afresh, segment by segment, however often the list holds
    it and however many of its segments an earlier report already
    printed.  It is the reference the renderer differential tests compare
    {!Res_core.Report} against: both must write the same bytes from all
    five printers. *)

open Res_core

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

let add_segment b (s : Suffix.segment) =
  Buffer.add_char b 't';
  Buffer.add_string b (string_of_int s.seg_tid);
  Buffer.add_char b ' ';
  Buffer.add_string b s.seg_func;
  Buffer.add_char b ':';
  Buffer.add_string b s.seg_block;
  Buffer.add_string b " -> ";
  match s.seg_end with
  | Seg_branch l -> Buffer.add_string b l
  | Seg_ret -> Buffer.add_string b "ret"
  | Seg_halt -> Buffer.add_string b "halt"
  | Seg_crash k ->
      Buffer.add_string b "CRASH (";
      Res_vm.Crash.add_kind ~sep:",\n" b k;
      Buffer.add_char b ')'
  | Seg_blocked -> Buffer.add_string b "blocked"

let add_suffix b (t : Suffix.t) =
  Printf.bprintf b "suffix (%d segments, %d instrs):\n" (Suffix.length t)
    (Suffix.length_steps t);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b '\n';
      add_segment b s)
    t.segments

let write_set (t : Suffix.t) =
  List.concat_map (fun (s : Suffix.segment) -> s.seg_writes) t.segments
  |> List.sort_uniq compare

let read_set (t : Suffix.t) =
  List.concat_map (fun (s : Suffix.segment) -> s.seg_reads) t.segments
  |> List.sort_uniq compare

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
  add_suffix b r.suffix;
  Buffer.add_string b "\nschedule: ";
  add_list b ~sep:"\n" add_int
    (List.map (fun (s : Suffix.segment) -> s.seg_tid) r.suffix.Suffix.segments);
  Buffer.add_char b '\n';
  (match Suffix.input_script r.suffix with
  | [] -> ()
  | inputs ->
      Buffer.add_string b "inputs: ";
      add_list b ~sep:comma add_int inputs;
      Buffer.add_char b '\n');
  add_addrs "write set: " (write_set r.suffix);
  add_addrs "read set: " (read_set r.suffix);
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

let report_to_string ctx r = render (fun b -> add_report ctx b r)

let analysis_to_string ctx a =
  render (fun b ->
      add_analysis ctx b a;
      Buffer.add_char b '\n')

let display_sort ctx (a : Res.analysis) =
  let score (r : Res.report) =
    match r.Res.root_cause with
    | Some c when Res.definite_cause c -> 2
    | Some _ -> 1
    | None -> 0
  in
  let reports =
    List.stable_sort
      (fun (ra : Res.report) (rb : Res.report) ->
        match compare (score rb) (score ra) with
        | 0 -> (
            match
              compare (Suffix.length rb.Res.suffix) (Suffix.length ra.Res.suffix)
            with
            | 0 -> String.compare (report_to_string ctx ra) (report_to_string ctx rb)
            | c -> c)
        | c -> c)
      a.Res.reports
  in
  { a with Res.reports }

let reports_to_string ctx (a : Res.analysis) =
  let a = display_sort ctx a in
  render (fun b ->
      Printf.bprintf b "depth %d nodes %d candidates %d synthesized %d\n\n"
        a.Res.depth_reached a.Res.nodes_expanded a.Res.candidates_tried
        a.Res.suffixes_synthesized;
      add_reports ctx b a.Res.reports;
      Buffer.add_char b '\n')

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

let sorted_outcome ctx (o : Res.outcome) =
  match o with
  | Res.Complete a -> Res.Complete (display_sort ctx a)
  | Res.Partial (r, a) -> Res.Partial (r, display_sort ctx a)
  | Res.Failed _ -> o
