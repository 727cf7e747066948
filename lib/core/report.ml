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

(** One render call's memo.  A report's text is rendered once however
    often the list holds it ({!Res.run} lists a repeated suffix's report as
    the same value) and whether {!display_sort} or the printer asked for
    it first; a suffix's segment lines, schedule and sets come from the
    {!Suffix.tails} of the reports before it; the crash line is rendered
    once per distinct crash.  Nothing outlives the call. *)
type memo = {
  tails : Suffix.tails;
  crashes : (Res_vm.Crash.t, string) Hashtbl.t;
  texts : (int, (Res.report * string) list) Hashtbl.t;
      (** report texts by suffix length; a report is found by physical
          equality *)
}

let memo ctx =
  {
    tails = Suffix.tails ~describe:(Res_mem.Layout.describe ctx.Backstep.layout);
    crashes = Hashtbl.create 4;
    texts = Hashtbl.create 64;
  }

let crash_line m crash =
  match Hashtbl.find_opt m.crashes crash with
  | Some s -> s
  | None ->
      let b = Buffer.create 64 in
      Res_vm.Crash.add ~sep:comma b crash;
      let s = Buffer.contents b in
      Hashtbl.add m.crashes crash s;
      s

let add_report m b (r : Res.report) =
  let tail = Suffix.tail m.tails r.suffix in
  Buffer.add_string b "failure: ";
  Buffer.add_string b (crash_line m r.suffix.Suffix.crash);
  Buffer.add_char b '\n';
  Suffix.add_header b ~count:tail.count ~steps:tail.steps;
  Suffix.add_joined b ~sep:"\n" (fun e -> e.Suffix.lines) tail;
  Buffer.add_string b "\nschedule: ";
  Suffix.add_joined b ~sep:"\n" (fun e -> e.Suffix.tids) tail;
  Buffer.add_char b '\n';
  if tail.inputs <> [] then (
    Buffer.add_string b "inputs: ";
    add_list b ~sep:comma
      (fun b sym -> add_int b (Res_solver.Model.value r.suffix.Suffix.model sym))
      tail.inputs;
    Buffer.add_char b '\n');
  Buffer.add_string b "write set: ";
  Buffer.add_string b (Lazy.force tail.writes.text);
  Buffer.add_string b "\nread set: ";
  Buffer.add_string b (Lazy.force tail.reads.text);
  Buffer.add_string b "\nreplayed: ";
  Buffer.add_string b
    (if r.verdict.Replay.reproduced then "yes, exact coredump match" else "NO");
  if r.deterministic then Buffer.add_string b " (deterministic)";
  Buffer.add_string b "\nroot cause: ";
  Buffer.add_string b
    (match r.root_cause with
    | Some cause -> Rootcause.signature cause
    | None -> "(not reproduced)");
  Buffer.add_char b '\n'

let render add =
  let b = Buffer.create 4096 in
  add b;
  Buffer.contents b

(** [text m r] is [r]'s text, rendered at most once per memo. *)
let text m (r : Res.report) =
  let n = Suffix.length r.suffix in
  let bucket = Option.value (Hashtbl.find_opt m.texts n) ~default:[] in
  match List.assq_opt r bucket with
  | Some s -> s
  | None ->
      let b = Buffer.create 1024 in
      add_report m b r;
      let s = Buffer.contents b in
      Hashtbl.replace m.texts n ((r, s) :: bucket);
      s

let add_reports m b reports =
  add_list b ~sep:"\n\n" (fun b r -> Buffer.add_string b (text m r)) reports

let add_analysis m b (a : Res.analysis) =
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
  add_reports m b a.Res.reports

(** One report's text, ending with a newline. *)
let report_to_string ctx r = text (memo ctx) r

let analysis_to_string ctx a =
  render (fun b ->
      add_analysis (memo ctx) b a;
      Buffer.add_char b '\n')

(* Deterministic display order: definite causes first, then longer
   suffixes, ties broken by the rendered report text.  A report's text is
   rendered only if it ties with a different report on both keys, and
   then into [m], where the printer finds it. *)
let sort m (a : Res.analysis) =
  let score (r : Res.report) =
    match r.Res.root_cause with
    | Some c when Res.definite_cause c -> 2
    | Some _ -> 1
    | None -> 0
  in
  let reports =
    a.Res.reports
    |> List.map (fun (r : Res.report) -> (r, score r, Suffix.length r.Res.suffix))
    |> List.stable_sort (fun (ra, sa, la) (rb, sb, lb) ->
           match compare sb sa with
           | 0 -> (
               match compare lb la with
               | 0 when ra == rb -> 0
               | 0 -> String.compare (text m ra) (text m rb)
               | c -> c)
           | c -> c)
    |> List.map (fun (r, _, _) -> r)
  in
  { a with Res.reports }

(** Deterministic display order: definite causes first, then longer
    suffixes, ties broken by the rendered report text — so two analyses
    with the same reports always print identically, whatever order the
    search emitted them in. *)
let display_sort ctx a = sort (memo ctx) a

(** The bit-stable projection of an analysis: counters and sorted reports,
    no timing.  Two runs that did the same work render identically here. *)
let reports_to_string ctx (a : Res.analysis) =
  let m = memo ctx in
  let a = sort m a in
  render (fun b ->
      Printf.bprintf b "depth %d nodes %d candidates %d synthesized %d\n\n"
        a.Res.depth_reached a.Res.nodes_expanded a.Res.candidates_tried
        a.Res.suffixes_synthesized;
      add_reports m b a.Res.reports;
      Buffer.add_char b '\n')

(** The report {e bodies} only, display-sorted, without the work counters.
    Two analyses that found the same defects render identically here even
    if they did different amounts of work to find them — this is what the
    static-prune equivalence check compares (pruning must change the
    counters and nothing else). *)
let report_list_to_string ctx (a : Res.analysis) =
  let m = memo ctx in
  let a = sort m a in
  render (fun b ->
      add_reports m b a.Res.reports;
      Buffer.add_char b '\n')

let outcome_to_string ctx (o : Res.outcome) =
  let m = memo ctx in
  render (fun b ->
      (match o with
      | Res.Complete a ->
          Buffer.add_string b "outcome: complete\n";
          add_analysis m b a
      | Res.Partial (reason, a) ->
          Printf.bprintf b "outcome: PARTIAL — %s\nbest partial results follow\n"
            (Fmt.str "%a" Res.pp_partial_reason reason);
          add_analysis m b a
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
