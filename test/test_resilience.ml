(* Resilience tests: the budget manager, the hardened coredump loader,
   graceful degradation of Res.analyze, the step-indexed fault plan, and
   the fault-injection self-test campaign.  The overarching invariant:
   hostile evidence and starved resources yield typed outcomes, never
   uncaught exceptions. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* --- Budget --- *)

let test_budget_fuel_trips () =
  let b = Res_core.Budget.create ~fuel:3 () in
  check bool_t "tick 1" true (Res_core.Budget.tick b);
  check bool_t "tick 2" true (Res_core.Budget.tick b);
  check bool_t "tick 3" true (Res_core.Budget.tick b);
  check bool_t "tick 4 exhausts" false (Res_core.Budget.tick b);
  (match Res_core.Budget.exhausted b with
  | Some Res_core.Budget.Fuel -> ()
  | Some Res_core.Budget.Deadline -> Alcotest.fail "expected Fuel, got Deadline"
  | None -> Alcotest.fail "expected exhaustion");
  (* exhaustion is sticky: once tripped, always tripped *)
  check bool_t "still exhausted" false (Res_core.Budget.ok b)

let test_budget_deadline_trips () =
  let b = Res_core.Budget.create ~wall_seconds:0.01 () in
  check bool_t "fresh budget ok" true (Res_core.Budget.ok b);
  Unix.sleepf 0.02;
  check bool_t "past deadline" false (Res_core.Budget.ok b);
  match Res_core.Budget.exhausted b with
  | Some Res_core.Budget.Deadline -> ()
  | _ -> Alcotest.fail "expected Deadline exhaustion"

let test_budget_unlimited () =
  let b = Res_core.Budget.unlimited () in
  for _ = 1 to 10_000 do
    ignore (Res_core.Budget.tick b)
  done;
  check bool_t "unlimited never exhausts" true (Res_core.Budget.ok b);
  check bool_t "no exhaustion recorded" true
    (Res_core.Budget.exhausted b = None)

let test_budget_cost () =
  let b = Res_core.Budget.create ~fuel:10 () in
  check bool_t "big tick spends all fuel" true
    (Res_core.Budget.tick ~cost:10 b);
  check bool_t "next tick fails" false (Res_core.Budget.tick b)

(* --- Coredump_io hardening --- *)

let sample_dump () = Res_workloads.Truth.coredump Res_workloads.Div_zero.workload

let classify text =
  match Res_vm.Coredump_io.of_string_result text with
  | Ok _ -> "ok"
  | Error e -> (
      match e with
      | Res_vm.Coredump_io.Empty_dump -> "empty"
      | Res_vm.Coredump_io.Bad_header _ -> "bad-header"
      | Res_vm.Coredump_io.Truncated _ -> "truncated"
      | Res_vm.Coredump_io.Corrupted _ -> "corrupted"
      | Res_vm.Coredump_io.Malformed _ -> "malformed"
      | Res_vm.Coredump_io.Unreadable _ -> "unreadable")

let test_dump_roundtrip () =
  let dump = sample_dump () in
  let text = Res_vm.Coredump_io.to_string dump in
  match Res_vm.Coredump_io.of_string_result text with
  | Ok { Res_vm.Coredump_io.dump = d; salvaged } ->
      check bool_t "no salvage needed" true (salvaged = None);
      check int_t "steps preserved" dump.Res_vm.Coredump.steps
        d.Res_vm.Coredump.steps
  | Error e ->
      Alcotest.fail (Res_vm.Coredump_io.dump_error_to_string e)

(* Bytes that [%S] writes as escapes ([\r], [\000], [\200]) next to
   the ones it always escaped: crash messages and log tags must load
   back byte-equal. *)
let escaped_bytes = "cr\r nul\000 hi\200 q\" bs\\ tab\t nl\n bs\b"

let test_dump_escaped_strings_roundtrip () =
  let dump = sample_dump () in
  let tracer =
    Res_vm.Tracer.record_log dump.Res_vm.Coredump.tracer ~tid:0
      ~tag:escaped_bytes ~value:7
  in
  List.iter
    (fun kind ->
      let d =
        {
          dump with
          Res_vm.Coredump.crash = { dump.Res_vm.Coredump.crash with kind };
          tracer;
        }
      in
      match Res_vm.Coredump_io.of_string_result (Res_vm.Coredump_io.to_string d)
      with
      | Ok { Res_vm.Coredump_io.dump = back; _ } ->
          check bool_t "crash kind byte-equal" true
            (back.Res_vm.Coredump.crash.Res_vm.Crash.kind = kind);
          check bool_t "log tag byte-equal" true
            (List.exists
               (fun e -> String.equal e.Res_vm.Tracer.log_tag escaped_bytes)
               (Res_vm.Tracer.logs back.Res_vm.Coredump.tracer))
      | Error e -> Alcotest.fail (Res_vm.Coredump_io.dump_error_to_string e))
    [
      Res_vm.Crash.Assert_fail escaped_bytes;
      Res_vm.Crash.Abort_called escaped_bytes;
    ]

let test_dump_empty_classified () =
  check Alcotest.string "empty string" "empty" (classify "");
  check Alcotest.string "whitespace only" "empty" (classify "  \n\n ")

let test_dump_bad_header_classified () =
  check Alcotest.string "garbage header" "bad-header"
    (classify "notacoredump v9\nsteps 3\n")

let test_dump_truncation_classified () =
  let text = Res_vm.Coredump_io.to_string (sample_dump ()) in
  (* cut the footer off: line-count check fires *)
  let cut = String.sub text 0 (String.length text * 2 / 3) in
  check Alcotest.string "truncated dump" "truncated" (classify cut)

let test_dump_bitflip_classified () =
  let text = Res_vm.Coredump_io.to_string (sample_dump ()) in
  (* flip a payload byte well inside the dump: checksum check fires *)
  let b = Bytes.of_string text in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  check Alcotest.string "corrupted dump" "corrupted"
    (classify (Bytes.to_string b))

let test_dump_legacy_v1_accepted () =
  let text = Res_vm.Coredump_io.to_string (sample_dump ()) in
  (* strip the v2 footer and downgrade the header: a legacy dump *)
  let no_footer = String.sub text 0 (String.rindex_from text (String.length text - 2) '\n' + 1) in
  let v1 =
    "coredump v1" ^ String.sub no_footer 11 (String.length no_footer - 11)
  in
  match Res_vm.Coredump_io.of_string_result v1 with
  | Ok _ -> ()
  | Error e ->
      Alcotest.fail
        ("v1 dump rejected: " ^ Res_vm.Coredump_io.dump_error_to_string e)

let test_dump_salvage_recovers_prefix () =
  let text = Res_vm.Coredump_io.to_string (sample_dump ()) in
  (* keep 90% of the bytes — crash record sits early, so salvage works *)
  let cut = String.sub text 0 (String.length text * 9 / 10) in
  match Res_vm.Coredump_io.of_string_result ~salvage:true cut with
  | Ok { Res_vm.Coredump_io.salvaged = Some _; _ } -> ()
  | Ok { Res_vm.Coredump_io.salvaged = None; _ } ->
      Alcotest.fail "expected salvage to be recorded"
  | Error e ->
      Alcotest.fail
        ("salvage failed: " ^ Res_vm.Coredump_io.dump_error_to_string e)

(* --- one record per line ------------------------------------------------ *)

let deadlock_dump () = Res_workloads.Truth.coredump Res_workloads.Deadlock.workload

let deadlock_facts (d : Res_vm.Coredump.t) =
  ( (match d.Res_vm.Coredump.crash.Res_vm.Crash.kind with
    | Res_vm.Crash.Deadlock tids -> tids
    | _ -> Alcotest.fail "expected a deadlock crash"),
    List.length (Res_vm.Coredump.threads d) )

let facts_t = Alcotest.(pair (list int) int)

let tear_footer text =
  String.sub text 0 (String.rindex_from text (String.length text - 2) '\n' + 1)

(* The line-based salvage parser reads a record per line, so the writer
   must never break one: every line of every workload's dump is a whole
   record, and salvaging the dump with its footer torn off recovers what
   a strict load of the whole dump does. *)
let test_dump_one_record_per_line () =
  List.iter
    (fun (w : Res_workloads.Truth.t) ->
      let text = Res_vm.Coredump_io.to_string (Res_workloads.Truth.coredump w) in
      String.split_on_char '\n' text
      |> List.iteri (fun i line ->
             if i > 0 && line <> "" then
               check bool_t
                 (Fmt.str "%s line %d is a whole record: %S" w.w_name i line)
                 true
                 (List.mem
                    (List.hd (String.split_on_char ' ' line))
                    [ "steps"; "crash"; "mem"; "heap_next"; "heap_block";
                      "thread"; "frame"; "reg"; "lbr_depth"; "branch"; "log";
                      "end" ]));
      match
        Res_vm.Coredump_io.of_string_result ~salvage:true (tear_footer text)
      with
      | Ok { Res_vm.Coredump_io.dump; _ } ->
          check Alcotest.string (w.w_name ^ ": salvage = strict load") text
            (Res_vm.Coredump_io.to_string dump)
      | Error e -> Alcotest.fail (Res_vm.Coredump_io.dump_error_to_string e))
    Res_workloads.Workloads.all

(* A torn deadlock dump (footer gone) salvages every deadlocked tid and
   every thread, as the strict load of the whole dump does. *)
let test_dump_torn_deadlock_salvages () =
  let d = deadlock_dump () in
  let text = Res_vm.Coredump_io.to_string d in
  let torn = tear_footer text in
  check facts_t "strict load" ([ 0; 1; 2 ], 3) (deadlock_facts d);
  match Res_vm.Coredump_io.of_string_result ~salvage:true torn with
  | Ok { Res_vm.Coredump_io.dump; salvaged = Some _ } ->
      check facts_t "salvaged tids and threads" ([ 0; 1; 2 ], 3)
        (deadlock_facts dump)
  | Ok { salvaged = None; _ } -> Alcotest.fail "a torn dump needs salvage"
  | Error e -> Alcotest.fail (Res_vm.Coredump_io.dump_error_to_string e)

(* Earlier writers broke the deadlock tid list across two lines.  Such
   files are sealed and well-formed to the token reader, so they still
   load strictly. *)
let old_split_deadlock =
  {|coredump v2
steps 13
crash 0 main entry 2 deadlock 0 1
2
mem 4096 2
mem 4098 3
heap_next 16777216
thread 0 blocked_on_join 1
frame main entry 2 none
reg 0 1
reg 1 2
thread 1 blocked_on_lock 4098
frame left second 1 none
reg 0 4096
reg 1 4098
thread 2 blocked_on_lock 4096
frame right second 1 none
reg 0 4098
reg 1 4096
lbr_depth 16
branch 2 right entry second
branch 1 left entry second
end 22 2760442366
|}

let test_dump_old_split_form_loads () =
  match Res_vm.Coredump_io.of_string_result old_split_deadlock with
  | Ok { Res_vm.Coredump_io.dump; salvaged = None } ->
      check facts_t "tids and threads" ([ 0; 1; 2 ], 3) (deadlock_facts dump);
      check Alcotest.string "re-renders as today's dump"
        (Res_vm.Coredump_io.to_string (deadlock_dump ()))
        (Res_vm.Coredump_io.to_string dump)
  | Ok { salvaged = Some _; _ } -> Alcotest.fail "old dump needed salvage"
  | Error e -> Alcotest.fail (Res_vm.Coredump_io.dump_error_to_string e)

(* property: of_string_result NEVER raises, whatever we do to the bytes *)
let test_dump_no_exception_escapes () =
  let text = Res_vm.Coredump_io.to_string (sample_dump ()) in
  let n = String.length text in
  (* truncate at every 7th offset *)
  for i = 0 to n / 7 do
    let cut = String.sub text 0 (i * 7) in
    ignore (Res_vm.Coredump_io.of_string_result cut);
    ignore (Res_vm.Coredump_io.of_string_result ~salvage:true cut)
  done;
  (* flip each bit of every 13th byte *)
  for i = 0 to (n / 13) - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string text in
      let off = i * 13 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
      ignore (Res_vm.Coredump_io.of_string_result (Bytes.to_string b));
      ignore (Res_vm.Coredump_io.of_string_result ~salvage:true (Bytes.to_string b))
    done
  done

(* --- graceful degradation of Res.analyze --- *)

let test_analyze_one_fuel_is_partial () =
  let w = Res_workloads.Div_zero.workload in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let budget = Res_core.Budget.create ~fuel:1 () in
  match Res_core.Res.analyze ~budget ctx dump with
  | Res_core.Res.Partial (Res_core.Res.Fuel_exhausted, a) ->
      (* stats must still be valid, reports may be empty *)
      check bool_t "non-negative nodes" true
        (a.Res_core.Res.nodes_expanded >= 0);
      check bool_t "non-negative candidates" true
        (a.Res_core.Res.candidates_tried >= 0);
      check bool_t "non-negative depth" true
        (a.Res_core.Res.depth_reached >= 0)
  | o ->
      Alcotest.fail
        (Fmt.str "expected Partial Fuel_exhausted, got %a"
           Res_core.Res.pp_outcome o)

let test_analyze_bad_dump_is_failed () =
  let w = Res_workloads.Div_zero.workload in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  (* a crash pc pointing at a function the program does not have *)
  let crash =
    {
      dump.Res_vm.Coredump.crash with
      Res_vm.Crash.pc = Res_ir.Pc.v ~func:"no_such_func" ~block:"entry" ~idx:0;
    }
  in
  let bad = { dump with Res_vm.Coredump.crash } in
  match Res_core.Res.analyze ctx bad with
  | Res_core.Res.Failed (Res_core.Res.Bad_dump _) -> ()
  | o ->
      Alcotest.fail
        (Fmt.str "expected Failed Bad_dump, got %a" Res_core.Res.pp_outcome o)

let test_analyze_complete_on_healthy_input () =
  let w = Res_workloads.Div_zero.workload in
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  match Res_core.Res.analyze ctx dump with
  | Res_core.Res.Complete a ->
      check bool_t "has reports" true (a.Res_core.Res.reports <> [])
  | o ->
      Alcotest.fail
        (Fmt.str "expected Complete, got %a" Res_core.Res.pp_outcome o)

(* --- step-indexed fault plans --- *)

let test_fault_map_queries () =
  let f =
    Res_vm.Fault.bit_flip ~step:5 ~addr:100 ~bit:2
    |> fun f -> Res_vm.Fault.add_alu_error f ~step:7 ~delta:1
    |> fun f -> Res_vm.Fault.add_dma_write f ~step:5 ~addr:200 ~value:42
  in
  check int_t "alu delta at 7" 1 (Res_vm.Fault.alu_delta_at f ~step:7);
  check int_t "no alu delta at 5" 0 (Res_vm.Fault.alu_delta_at f ~step:5);
  check bool_t "not none" false (Res_vm.Fault.is_none f);
  check int_t "one bit flip" 1 (List.length (Res_vm.Fault.bit_flips f));
  check int_t "one dma write" 1 (List.length (Res_vm.Fault.dma_writes f));
  check int_t "one alu error" 1 (List.length (Res_vm.Fault.alu_errors f))

let test_fault_accessors_sorted () =
  let f =
    Res_vm.Fault.bit_flip ~step:9 ~addr:1 ~bit:0 |> fun f ->
    Res_vm.Fault.add_bit_flip f ~step:3 ~addr:2 ~bit:1 |> fun f ->
    Res_vm.Fault.add_bit_flip f ~step:6 ~addr:3 ~bit:2
  in
  let steps = List.map (fun (s, _, _) -> s) (Res_vm.Fault.bit_flips f) in
  check (Alcotest.list int_t) "ascending step order" [ 3; 6; 9 ] steps

(* --- the fault-injection campaign itself --- *)

module D = Res_faultinject.Differential

let test_campaign_no_escapes () =
  let s =
    Res_faultinject.Faultinject.campaign ~seed:7 ~runs:54 ~skip_deadline:true ()
  in
  check int_t "54 runs" 54 s.D.total;
  check int_t "zero failures" 0 (List.length s.D.failures);
  (* every run landed in a typed bucket *)
  let sum key = List.fold_left (fun n r -> n + D.count r key) 0 s.D.runs in
  check int_t "buckets account for every run" s.D.total
    (sum "complete" + sum "partial" + sum "failed" + sum "dump-error")

let test_deadline_compliance () =
  let s = Res_faultinject.Faultinject.campaign ~runs:0 () in
  match s.D.runs with
  | [ d ] ->
      check int_t "cut off by the clock" 1 (D.count d "cut_off");
      check bool_t
        (Fmt.str "within 10%% of deadline (elapsed %dms)" (D.count d "elapsed_ms"))
        true d.D.equivalent
  | _ -> Alcotest.fail "expected the deadline run alone"

(* --- the differential harness and the fleet kit --- *)

let projection bytes counts = { D.bytes; counts }

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_differential_one_byte () =
  let s =
    D.run ~campaign:"t"
      ~reference:(fun x -> projection x [])
      ~variants:
        [
          ("same", fun x -> projection x []);
          ("flip", fun x -> projection (x ^ "!") []);
        ]
      [ ("a", "abc") ]
  in
  check int_t "no subject equivalent" 0 s.D.ok;
  match s.D.failures with
  | [ r ] ->
      check bool_t "detail names the diverging variant" true
        (contains r.D.detail "flip");
      check bool_t "detail spares the matching variant" false
        (contains r.D.detail "same")
  | _ -> Alcotest.fail "expected one failure"

let test_differential_raise_is_failure () =
  let s =
    D.run ~campaign:"t"
      ~reference:(fun x -> projection x [])
      ~variants:[ ("boom", fun _ -> raise Not_found) ]
      [ ("a", "abc"); ("b", "def") ]
  in
  check int_t "both subjects fail" 2 (List.length s.D.failures);
  List.iter
    (fun r ->
      check bool_t "detail names the raising variant" true
        (contains r.D.detail "boom: escaped exception: Not_found"))
    s.D.failures;
  let s =
    D.run ~campaign:"t"
      ~reference:(fun _ -> failwith "no reference")
      ~variants:[] [ ("a", ()) ]
  in
  check bool_t "a raising reference fails its subject" true
    (s.D.ok = 0 && contains (List.hd s.D.runs).D.detail "no reference")

let test_differential_counts_sum () =
  let s =
    D.run ~campaign:"t"
      ~reference:(fun n -> projection "x" [ ("nodes", n) ])
      ~variants:[ ("fast", fun n -> projection "x" [ ("nodes", n - 1) ]) ]
      [ ("a", 10); ("b", 5) ]
  in
  check int_t "per-run count" 9 (D.count (List.hd s.D.runs) "fast.nodes");
  let text = Fmt.str "%a" D.pp_summary s in
  check bool_t "summary sums the reference counts" true
    (contains text "nodes 15");
  check bool_t "summary sums the variant counts" true
    (contains text "fast.nodes 13")

let test_check_runs () =
  let s =
    D.summarize ~campaign:"t"
      [
        D.check ~name:"good" ~counts:[ ("shed", 3) ] [];
        D.check ~name:"bad" ~counts:[ ("shed", 0) ] [ "shed nothing" ];
      ]
  in
  (match s.D.failures with
  | [ r ] ->
      check bool_t "the failed run is the one with problems" true
        (r.D.name = "bad" && contains r.D.detail "shed nothing")
  | _ -> Alcotest.fail "expected one failure");
  let text = Fmt.str "%a" D.pp_summary s in
  check bool_t "summary counts the passed runs" true
    (contains text "1/2 run(s) passed");
  check bool_t "summary sums the check counts" true (contains text "shed 3");
  check bool_t "no variants line without variants" false
    (contains text "variant(s)")

let test_kit_removes_scratch () =
  let module Fleet = Res_faultinject.Fleet in
  let fill (k : Fleet.t) =
    let sub = Filename.concat k.Fleet.dir "sub" in
    Unix.mkdir sub 0o755;
    close_out (open_out (Filename.concat sub "f"));
    k.Fleet.dir
  in
  let dir = Fleet.with_kit "res-kit-test" fill in
  check bool_t "removed on return" false (Sys.file_exists dir);
  let seen = ref "" in
  (match
     Fleet.with_kit "res-kit-test" (fun k ->
         seen := fill k;
         failwith "mid-campaign")
   with
  | () -> Alcotest.fail "the exception must propagate"
  | exception Failure _ -> ());
  check bool_t "removed on exception" false (Sys.file_exists !seen)

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "fuel exhaustion trips and sticks" `Quick
            test_budget_fuel_trips;
          Alcotest.test_case "deadline exhaustion trips" `Quick
            test_budget_deadline_trips;
          Alcotest.test_case "unlimited budget never trips" `Quick
            test_budget_unlimited;
          Alcotest.test_case "tick cost is honored" `Quick test_budget_cost;
        ] );
      ( "coredump hardening",
        [
          Alcotest.test_case "v2 round-trip" `Quick test_dump_roundtrip;
          Alcotest.test_case "escaped message bytes round-trip" `Quick
            test_dump_escaped_strings_roundtrip;
          Alcotest.test_case "empty classified" `Quick
            test_dump_empty_classified;
          Alcotest.test_case "bad header classified" `Quick
            test_dump_bad_header_classified;
          Alcotest.test_case "truncation classified" `Quick
            test_dump_truncation_classified;
          Alcotest.test_case "bit flip classified" `Quick
            test_dump_bitflip_classified;
          Alcotest.test_case "legacy v1 accepted" `Quick
            test_dump_legacy_v1_accepted;
          Alcotest.test_case "salvage recovers prefix" `Quick
            test_dump_salvage_recovers_prefix;
          Alcotest.test_case "no exception escapes the loader" `Quick
            test_dump_no_exception_escapes;
          Alcotest.test_case "one record per line" `Quick
            test_dump_one_record_per_line;
          Alcotest.test_case "torn deadlock dump salvages all tids" `Quick
            test_dump_torn_deadlock_salvages;
          Alcotest.test_case "old split deadlock record loads" `Quick
            test_dump_old_split_form_loads;
        ] );
      ( "graceful degradation",
        [
          Alcotest.test_case "1-fuel budget yields Partial with valid stats"
            `Quick test_analyze_one_fuel_is_partial;
          Alcotest.test_case "invalid dump yields Failed Bad_dump" `Quick
            test_analyze_bad_dump_is_failed;
          Alcotest.test_case "healthy input yields Complete" `Quick
            test_analyze_complete_on_healthy_input;
        ] );
      ( "fault plan",
        [
          Alcotest.test_case "step-indexed queries" `Quick
            test_fault_map_queries;
          Alcotest.test_case "accessors ascending" `Quick
            test_fault_accessors_sorted;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "campaign of 54 perturbed analyses, no escapes"
            `Slow test_campaign_no_escapes;
          Alcotest.test_case "1s deadline honored within 10%" `Slow
            test_deadline_compliance;
        ] );
      ( "differential",
        [
          Alcotest.test_case "a one-byte divergence names its variant" `Quick
            test_differential_one_byte;
          Alcotest.test_case "a raising projection is a failure" `Quick
            test_differential_raise_is_failure;
          Alcotest.test_case "counts sum across runs" `Quick
            test_differential_counts_sum;
          Alcotest.test_case "check runs fail on problems and sum counts"
            `Quick test_check_runs;
          Alcotest.test_case "fleet kit removes its scratch tree" `Quick
            test_kit_removes_scratch;
        ] );
    ]
