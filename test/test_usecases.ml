(* Tests for the §3 use cases: triaging, exploitability, hardware-error
   diagnosis. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* --- triage --- *)

let corpus = lazy (Res_workloads.Corpus.generate ~n_per_bug:3 ())

let triage_reports () =
  let reports = Lazy.force corpus in
  let as_triage =
    List.map
      (fun (r : Res_workloads.Corpus.report) ->
        ( { Res_usecases.Triage.t_id = r.r_id; t_prog = r.r_prog; t_dump = r.r_dump },
          r.r_bug ))
      reports
  in
  as_triage

let test_wer_fragments_and_merges () =
  let pairs = triage_reports () in
  let reports = List.map fst pairs in
  let truth r = List.assq r pairs in
  let buckets =
    Res_usecases.Triage.bucket
      ~key:(fun (r : Res_usecases.Triage.report) ->
        Res_usecases.Triage.wer_key r.t_dump)
      reports
  in
  let q = Res_usecases.Triage.quality ~truth ~buckets reports in
  (* WER must both over-split (uaf variants) and wrongly merge (the
     same-stack pair), so mis-bucketing is well above zero *)
  check bool_t
    (Fmt.str "WER misbuckets a sizable fraction (%.2f)" q.misbucketed)
    true
    (q.Res_usecases.Triage.misbucketed > 0.15);
  check bool_t "WER splits bugs (recall < 1)" true
    (q.Res_usecases.Triage.pairwise_recall < 1.0);
  check bool_t "WER merges bugs (precision < 1)" true
    (q.Res_usecases.Triage.pairwise_precision < 1.0)

let test_res_buckets_by_root_cause () =
  let pairs = triage_reports () in
  let reports = List.map fst pairs in
  let truth r = List.assq r pairs in
  let buckets = Res_usecases.Triage.bucket ~key:Res_usecases.Triage.res_key reports in
  let q = Res_usecases.Triage.quality ~truth ~buckets reports in
  check int_t "one bucket per bug" q.Res_usecases.Triage.n_bugs
    q.Res_usecases.Triage.n_buckets;
  check (Alcotest.float 0.001) "nothing misbucketed" 0.0
    q.Res_usecases.Triage.misbucketed;
  check (Alcotest.float 0.001) "perfect pairwise F1" 1.0
    q.Res_usecases.Triage.pairwise_f1

let test_quality_metric_sanity () =
  (* perfect bucketing on a fabricated corpus *)
  let dummy_prog = Res_workloads.Fig1.prog in
  let dump = Res_workloads.Truth.coredump Res_workloads.Fig1.workload in
  let mk id = { Res_usecases.Triage.t_id = id; t_prog = dummy_prog; t_dump = dump } in
  let r1 = mk 1 and r2 = mk 2 and r3 = mk 3 in
  let truth r = if r == r3 then "b" else "a" in
  let perfect = [ ("k1", [ r1; r2 ]); ("k2", [ r3 ]) ] in
  let q = Res_usecases.Triage.quality ~truth ~buckets:perfect [ r1; r2; r3 ] in
  check (Alcotest.float 0.001) "perfect f1" 1.0 q.Res_usecases.Triage.pairwise_f1;
  check (Alcotest.float 0.001) "no misbuckets" 0.0 q.Res_usecases.Triage.misbucketed;
  (* everything merged: precision suffers *)
  let merged = [ ("k", [ r1; r2; r3 ]) ] in
  let q = Res_usecases.Triage.quality ~truth ~buckets:merged [ r1; r2; r3 ] in
  check bool_t "merged precision < 1" true (q.Res_usecases.Triage.pairwise_precision < 1.0);
  check (Alcotest.float 0.001) "merged recall 1" 1.0 q.Res_usecases.Triage.pairwise_recall

let test_annotations_override_bucket () =
  let pairs = triage_reports () in
  let reports = List.map fst pairs in
  let annotations =
    [
      Res_usecases.Triage.annotate_signature_prefix ~bucket:"ISSUE-42"
        ~prefix:"div0:scale";
    ]
  in
  let buckets =
    Res_usecases.Triage.bucket
      ~key:(fun r -> Res_usecases.Triage.res_key ~annotations r)
      reports
  in
  check bool_t "annotated bucket exists" true
    (List.mem_assoc "ISSUE-42" buckets);
  check bool_t "raw div0 signature no longer used" true
    (not (List.exists (fun (k, _) -> k = "div0:scale:entry:0") buckets))

(* --- exploitability --- *)

let classify w =
  let dump = Res_workloads.Truth.coredump w in
  Res_usecases.Exploit.classify_dump w.Res_workloads.Truth.w_prog dump

let test_exploit_tainted_index () =
  let e = classify Res_workloads.Heap_overflow.workload_tainted in
  check Alcotest.string "tainted overflow exploitable" "EXPLOITABLE"
    (Res_usecases.Exploit.rating_name e.Res_usecases.Exploit.rating);
  check bool_t "address tainted" true e.Res_usecases.Exploit.tainted_addr

let test_exploit_internal_index () =
  let e = classify Res_workloads.Heap_overflow.workload_internal in
  check Alcotest.string "internal overflow not exploitable"
    "PROBABLY_NOT_EXPLOITABLE"
    (Res_usecases.Exploit.rating_name e.Res_usecases.Exploit.rating);
  check bool_t "address untainted" false e.Res_usecases.Exploit.tainted_addr

let test_exploit_fig1 () =
  let e = classify Res_workloads.Fig1.workload in
  check Alcotest.string "Fig.1 index is attacker data" "EXPLOITABLE"
    (Res_usecases.Exploit.rating_name e.Res_usecases.Exploit.rating)

let test_exploit_beats_heuristic () =
  (* ground truth: (workload, attacker can drive the fault) *)
  let cases =
    [
      (Res_workloads.Heap_overflow.workload_tainted, true);
      (Res_workloads.Heap_overflow.workload_internal, false);
      (Res_workloads.Fig1.workload, true);
      (Res_workloads.Uaf.workload_variant 0, false);
      (Res_workloads.Double_free.workload, false);
    ]
  in
  let res_correct, heur_correct =
    List.fold_left
      (fun (rc, hc) (w, expected) ->
        let dump = Res_workloads.Truth.coredump w in
        let e = Res_usecases.Exploit.classify_dump w.Res_workloads.Truth.w_prog dump in
        let res_says = e.Res_usecases.Exploit.rating = Res_usecases.Exploit.Exploitable in
        let h = Res_baselines.Exploitable_heuristic.rate w.Res_workloads.Truth.w_prog dump in
        let heur_says =
          h = Res_baselines.Exploitable_heuristic.H_exploitable
        in
        ( (rc + if res_says = expected then 1 else 0),
          (hc + if heur_says = expected then 1 else 0) ))
      (0, 0) cases
  in
  check int_t "RES classifies all five correctly" 5 res_correct;
  check bool_t
    (Fmt.str "heuristic is strictly worse (%d < %d)" heur_correct res_correct)
    true (heur_correct < res_correct)

(* --- hardware diagnosis --- *)

let test_hwdiag_all_cases () =
  List.iter
    (fun (c : Res_workloads.Hw_fault.case) ->
      let dump = Res_workloads.Hw_fault.coredump_of_case c in
      let v = Res_usecases.Hwdiag.diagnose c.c_prog dump in
      let is_hw =
        match v with Res_usecases.Hwdiag.Hardware _ -> true | _ -> false
      in
      check bool_t
        (Fmt.str "%s diagnosed correctly" c.c_name)
        c.Res_workloads.Hw_fault.c_hardware is_hw)
    Res_workloads.Hw_fault.cases

let test_hwdiag_identifies_location () =
  (* the memory-error verdict names the corrupted global *)
  let c = List.hd Res_workloads.Hw_fault.cases in
  let dump = Res_workloads.Hw_fault.coredump_of_case c in
  let layout = Res_mem.Layout.of_prog c.c_prog in
  let flag = Res_mem.Layout.global_base layout "flag" in
  match Res_usecases.Hwdiag.diagnose c.c_prog dump with
  | Res_usecases.Hwdiag.Hardware (Res_usecases.Hwdiag.Memory_error { addr }) ->
      check int_t "corrupted cell identified" flag addr
  | v -> Alcotest.failf "expected memory error, got %a" Res_usecases.Hwdiag.pp_verdict v

let test_hwdiag_cpu_register () =
  let c =
    List.find
      (fun (c : Res_workloads.Hw_fault.case) ->
        String.equal c.c_name "cpu-alu-miscompute")
      Res_workloads.Hw_fault.cases
  in
  let dump = Res_workloads.Hw_fault.coredump_of_case c in
  match Res_usecases.Hwdiag.diagnose c.c_prog dump with
  | Res_usecases.Hwdiag.Hardware (Res_usecases.Hwdiag.Cpu_error { reg; _ }) ->
      check int_t "miscomputed register identified" 2 reg
  | v -> Alcotest.failf "expected CPU error, got %a" Res_usecases.Hwdiag.pp_verdict v

(* A software verdict's report claims determinism only for a replay that
   consumed its scripts exactly, as [Res.analyze]'s reports do. *)
let test_hwdiag_determinism_is_pinned () =
  let software =
    List.fold_left
      (fun n (w : Res_workloads.Truth.t) ->
        match
          Res_usecases.Hwdiag.diagnose w.w_prog (Res_workloads.Truth.coredump w)
        with
        | Res_usecases.Hwdiag.Software r ->
            check bool_t
              (w.w_name ^ ": deterministic = pinned")
              r.Res_core.Res.verdict.Res_core.Replay.pinned r.deterministic;
            n + 1
        | _ -> n)
      0 Res_workloads.Workloads.all
  in
  check bool_t "some workloads are software bugs" true (software > 0)

let () =
  Alcotest.run "res_usecases"
    [
      ( "triage",
        [
          Alcotest.test_case "WER fragments and merges" `Quick
            test_wer_fragments_and_merges;
          Alcotest.test_case "RES buckets by root cause" `Quick
            test_res_buckets_by_root_cause;
          Alcotest.test_case "metric sanity" `Quick test_quality_metric_sanity;
          Alcotest.test_case "developer annotations" `Quick
            test_annotations_override_bucket;
        ] );
      ( "exploit",
        [
          Alcotest.test_case "tainted index" `Quick test_exploit_tainted_index;
          Alcotest.test_case "internal index" `Quick test_exploit_internal_index;
          Alcotest.test_case "Fig.1" `Quick test_exploit_fig1;
          Alcotest.test_case "beats heuristic" `Quick test_exploit_beats_heuristic;
        ] );
      ( "hwdiag",
        [
          Alcotest.test_case "all six cases" `Quick test_hwdiag_all_cases;
          Alcotest.test_case "memory location" `Quick test_hwdiag_identifies_location;
          Alcotest.test_case "cpu register" `Quick test_hwdiag_cpu_register;
          Alcotest.test_case "software reports: deterministic = pinned" `Quick
            test_hwdiag_determinism_is_pinned;
        ] );
    ]
