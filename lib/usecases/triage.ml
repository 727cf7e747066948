(** Bug-report triaging (paper §3.1).

    Two bucketing strategies over a stream of (program, coredump) reports:

    - [wer_key]: the state of the art — hash the crash stack and failure
      family, no execution analysis (Windows Error Reporting style);
    - [res_key]: run RES, replay the synthesized suffix, and bucket by the
      classified root-cause signature.

    Plus clustering-quality metrics against ground truth, so benchmarks can
    reproduce the paper's "WER mis-buckets up to 37%" shape. *)

module SMap = Map.Make (String)

(** One incoming report: a program and its coredump. *)
type report = { t_id : int; t_prog : Res_ir.Prog.t; t_dump : Res_vm.Coredump.t }

(** WER-style key: crash-kind family plus the full crash stack. *)
let wer_key (dump : Res_vm.Coredump.t) =
  let stack = Res_vm.Coredump.crash_stack dump in
  let family =
    Res_vm.Crash.kind_family dump.Res_vm.Coredump.crash.Res_vm.Crash.kind
  in
  Fmt.str "%s|%a" family
    Fmt.(
      list ~sep:(any ";") (fun ppf (f, b, i) -> Fmt.pf ppf "%s:%s:%d" f b i))
    stack

(** Developer annotations (paper §3.1): "once developers find the root
    cause of a failure, they can write RES annotations for the particular
    root cause, which would help RES triage other bug reports into the
    same bucket."  An annotation overrides the automatic signature when its
    predicate recognizes the classified cause. *)
type annotation = {
  a_bucket : string;  (** bucket name, e.g. an issue-tracker id *)
  a_matches : Res_core.Rootcause.t -> Res_vm.Coredump.t -> bool;
}

(** Annotation matching causes whose signature has the given prefix —
    the common "this family of failures is issue X" rule. *)
let annotate_signature_prefix ~bucket ~prefix =
  {
    a_bucket = bucket;
    a_matches =
      (fun cause _dump ->
        let s = Res_core.Rootcause.signature cause in
        String.length s >= String.length prefix
        && String.equal (String.sub s 0 (String.length prefix)) prefix);
  }

(** Analyze one (program, dump) pair for triage: the verdict's bucket is
    the root-cause signature of the best reproduced suffix (or a matching
    developer annotation's bucket), falling back to the WER key when
    synthesis fails (graceful degradation); the verdict also carries the
    solver queries the analysis issued — the per-dump unit of work
    `res triage --dir` farms to its pool.  Never raises: an analysis that
    dies internally degrades to a [failed] verdict in the
    [analysis-error] bucket. *)
let triage_one ?(config = Res_core.Res.default_config) ?(annotations = [])
    ?budget prog dump : Res_cache.Cache.row =
  let q0 = Res_solver.Solver.queries () in
  let queries () = Res_solver.Solver.queries () - q0 in
  try
    let ctx = Res_core.Backstep.make_ctx prog in
    let outcome = Res_core.Res.analyze ~config ?budget ctx dump in
    let analysis = Res_core.Res.analysis outcome in
    let bucket, cause =
      match Res_core.Res.best_cause analysis with
      | Some cause -> (
          let sig_ = Res_core.Rootcause.signature cause in
          match List.find_opt (fun a -> a.a_matches cause dump) annotations with
          | Some a -> (a.a_bucket, sig_)
          | None -> (sig_, sig_))
      | None -> (wer_key dump, "")
    in
    {
      c_outcome = Res_core.Res.outcome_name outcome;
      c_timeout = Res_core.Res.is_budget_partial outcome;
      c_bucket = bucket;
      c_cause = cause;
      c_nodes = analysis.Res_core.Res.nodes_expanded;
      c_pruned = analysis.Res_core.Res.nodes_pruned;
      c_queries = queries ();
    }
  with exn ->
    {
      (Res_cache.Cache.failed_row ~bucket:"analysis-error"
         ~cause:(Printexc.to_string exn))
      with
      c_queries = queries ();
    }

(** RES key: the bucket of {!triage_one}'s verdict. *)
let res_key ?config ?annotations (r : report) =
  (triage_one ?config ?annotations r.t_prog r.t_dump).c_bucket

(** Group reports by a key function. *)
let bucket ~key reports =
  List.fold_left
    (fun m r ->
      let k = key r in
      SMap.update k
        (function Some l -> Some (r :: l) | None -> Some [ r ])
        m)
    SMap.empty reports
  |> SMap.bindings
  |> List.map (fun (k, l) -> (k, List.rev l))

(** Clustering quality against ground-truth labels.

    [misbucketed] is the fraction of reports that do not sit in the bucket
    "owned" by their bug (each bug owns the bucket holding most of its
    reports; a bucket can be owned by one bug only — greedy assignment by
    bucket size).  [pairwise_*] are the standard same-bucket pair metrics. *)
type quality = {
  n_reports : int;
  n_buckets : int;
  n_bugs : int;
  misbucketed : float;
  pairwise_precision : float;
  pairwise_recall : float;
  pairwise_f1 : float;
}

let quality ~truth ~buckets reports =
  let n = List.length reports in
  let truth_of = truth in
  (* pairwise counts *)
  let bucket_of =
    List.concat_map (fun (k, rs) -> List.map (fun r -> (r, k)) rs) buckets
  in
  let key_of r = List.assq r bucket_of in
  let pairs l =
    let rec go = function
      | [] -> []
      | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
    in
    go l
  in
  let all_pairs = pairs reports in
  let same_bucket (a, b) = String.equal (key_of a) (key_of b) in
  let same_bug (a, b) = String.equal (truth_of a) (truth_of b) in
  let count p = List.length (List.filter p all_pairs) in
  let tp = count (fun pr -> same_bucket pr && same_bug pr) in
  let fp = count (fun pr -> same_bucket pr && not (same_bug pr)) in
  let fn = count (fun pr -> (not (same_bucket pr)) && same_bug pr) in
  let ratio a b = if a + b = 0 then 1.0 else float_of_int a /. float_of_int (a + b) in
  let precision = ratio tp fp and recall = ratio tp fn in
  let f1 =
    if precision +. recall = 0. then 0.
    else 2. *. precision *. recall /. (precision +. recall)
  in
  (* greedy bucket ownership *)
  let by_size =
    List.sort (fun (_, a) (_, b) -> compare (List.length b) (List.length a)) buckets
  in
  let owned = Hashtbl.create 8 in
  List.iter
    (fun (_, rs) ->
      let majority =
        List.fold_left
          (fun acc r ->
            let t = truth_of r in
            SMap.update t
              (function Some c -> Some (c + 1) | None -> Some 1)
              acc)
          SMap.empty rs
        |> SMap.bindings
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      match majority with
      | (bug, _) :: _ when not (Hashtbl.mem owned bug) ->
          Hashtbl.replace owned bug rs
      | _ -> ())
    by_size;
  let well_placed =
    Hashtbl.fold
      (fun bug rs acc ->
        acc + List.length (List.filter (fun r -> String.equal (truth_of r) bug) rs))
      owned 0
  in
  let bugs = List.sort_uniq compare (List.map truth_of reports) in
  {
    n_reports = n;
    n_buckets = List.length buckets;
    n_bugs = List.length bugs;
    misbucketed =
      (if n = 0 then 0. else float_of_int (n - well_placed) /. float_of_int n);
    pairwise_precision = precision;
    pairwise_recall = recall;
    pairwise_f1 = f1;
  }

let pp_quality ppf q =
  Fmt.pf ppf
    "reports=%d buckets=%d bugs=%d misbucketed=%.1f%% precision=%.2f \
     recall=%.2f f1=%.2f"
    q.n_reports q.n_buckets q.n_bugs (100. *. q.misbucketed)
    q.pairwise_precision q.pairwise_recall q.pairwise_f1
