(* Crash-safe checkpoint/resume tests: serializer round-trips over real
   mid-analysis states from every workload, loader rejection of damaged
   checkpoints (the PR-1 damage taxonomy), journal recovery of torn
   atomic writes, and kill-and-resume report equivalence.  The invariant
   under test: an analysis killed at any node boundary — even mid-
   checkpoint-write — resumes to bit-identical reports and never leaves a
   torn file on disk. *)

module Ckpt = Res_persist.Checkpoint
module Io = Res_vm.Coredump_io

let check = Alcotest.check
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* Exhaustive deepening (no early stop): searches run 6–70 nodes per
   workload, so kill points land mid-analysis and periodic checkpoints
   capture genuinely suspended frontiers. *)
let test_config =
  {
    Res_core.Res.search =
      {
        Res_core.Search.default_config with
        max_segments = 6;
        max_nodes = 2_000;
        max_suffixes = 8;
      };
    determinism_runs = 1;
    stop_at_first_cause = false;
    max_attempts = 2;
  }

(* Capture real mid-analysis checkpoint states for a workload by running
   the analysis with an in-memory checkpointer. *)
let captured_states ?(every = 3) (w : Res_workloads.Truth.t) =
  Res_solver.Expr.reset_counter_for_tests ();
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let states = ref [] in
  let checkpointer =
    {
      Res_core.Res.ck_every = every;
      ck_write =
        (fun st ->
          states := st :: !states;
          Ok "captured");
    }
  in
  ignore (Res_core.Res.analyze ~config:test_config ~checkpointer ctx dump);
  (dump, List.rev !states)

(* --- round-trip: serialize |> deserialize |> serialize is identity --- *)

let test_roundtrip_all_workloads () =
  List.iter
    (fun (w : Res_workloads.Truth.t) ->
      let dump, states = captured_states w in
      (* Also round-trip a synthetic "fresh" state so workloads whose
         analyses finish before the first periodic checkpoint still get
         coverage. *)
      let states =
        match states with
        | [] ->
            [
              {
                Res_core.Res.ck_attempt = 0;
                ck_max_nodes = 2_000;
                ck_depth = 1;
                ck_suffixes = [];
                ck_truncated = false;
                ck_stats = Res_core.Search.new_stats ();
                ck_suspended = None;
                ck_fuel = Some 42;
                ck_expr_counter = 7;
              };
            ]
        | states -> states
      in
      List.iteri
        (fun i state ->
          let c =
            {
              Ckpt.config = test_config;
              prog = w.Res_workloads.Truth.w_prog;
              dump;
              state;
            }
          in
          let text = Ckpt.to_string c in
          match Ckpt.of_string text with
          | Error e ->
              Alcotest.failf "%s state %d: reload failed: %s"
                w.Res_workloads.Truth.w_name i (Io.dump_error_to_string e)
          | Ok c' ->
              check string_t
                (Fmt.str "%s state %d round-trips bit-identically"
                   w.Res_workloads.Truth.w_name i)
                text (Ckpt.to_string c'))
        states)
    Res_workloads.Workloads.all

(* --- loader rejection of damaged checkpoints --- *)

let sample_checkpoint_text () =
  let w = Res_workloads.Workloads.find "use-after-free-a" in
  let dump, states = captured_states w in
  let state =
    match states with s :: _ -> s | [] -> Alcotest.fail "no states captured"
  in
  Ckpt.to_string
    { Ckpt.config = test_config; prog = w.Res_workloads.Truth.w_prog; dump; state }

let classify text =
  match Ckpt.of_string text with
  | Ok _ -> "ok"
  | Error Io.Empty_dump -> "empty"
  | Error (Io.Bad_header _) -> "bad-header"
  | Error (Io.Truncated _) -> "truncated"
  | Error (Io.Corrupted _) -> "corrupted"
  | Error (Io.Malformed _) -> "malformed"
  | Error (Io.Unreadable _) -> "unreadable"

let test_loader_rejects_damage () =
  let text = sample_checkpoint_text () in
  check string_t "intact loads" "ok" (classify text);
  check string_t "empty rejected" "empty" (classify "");
  check string_t "garbage header rejected" "bad-header"
    (classify ("notacheckpoint v9\n" ^ text));
  (* A sealed checkpoint in the v5 layout is refused by its header, not
     misread field by field. *)
  let v5 =
    match Res_core.Sealing.validate ~header:Ckpt.header text with
    | Ok payload ->
        let n = String.length Ckpt.header in
        Res_core.Sealing.seal
          ("rescheckpoint v5" ^ String.sub payload n (String.length payload - n))
    | Error _ -> Alcotest.fail "intact text must validate"
  in
  check string_t "v5 header rejected" "bad-header" (classify v5);
  check string_t "truncation detected" "truncated"
    (classify (String.sub text 0 (String.length text / 2)));
  (* Flip one bit in the middle of the payload: the FNV-1a footer must
     catch it. *)
  let flipped =
    let b = Bytes.of_string text in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  check bool_t "bit flip detected" true
    (match classify flipped with
    | "corrupted" | "truncated" | "bad-header" -> true
    | _ -> false)

(* --- journal recovery of the atomic writer's .tmp sibling --- *)

let test_journal_promotes_completed_write () =
  let text = sample_checkpoint_text () in
  let path = "journal-promote.ckpt" in
  let write p s =
    let oc = open_out_bin p in
    output_string oc s;
    close_out oc
  in
  (* A complete write that died before its rename: only the .tmp exists. *)
  (try Sys.remove path with Sys_error _ -> ());
  write (path ^ ".tmp") text;
  (match Ckpt.load path with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "promoted journal should load: %s"
        (Io.dump_error_to_string e));
  check bool_t "journal promoted to path" true (Sys.file_exists path);
  check bool_t "journal consumed" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let test_journal_discards_torn_write () =
  let text = sample_checkpoint_text () in
  let path = "journal-torn.ckpt" in
  let write p s =
    let oc = open_out_bin p in
    output_string oc s;
    close_out oc
  in
  (* A good checkpoint, then a torn half-written journal next to it. *)
  Ckpt.save path
    (match Ckpt.of_string text with
    | Ok c -> c
    | Error _ -> Alcotest.fail "sample text must parse");
  write (path ^ ".tmp") (String.sub text 0 (String.length text / 3));
  (match Ckpt.load path with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "good checkpoint should survive torn journal: %s"
        (Io.dump_error_to_string e));
  check bool_t "torn journal deleted" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

(* --- atomic coredump save --- *)

let test_coredump_save_atomic () =
  let w = Res_workloads.Workloads.find "div-by-zero" in
  let dump = Res_workloads.Truth.coredump w in
  let path = "atomic-dump.core" in
  Res_core.Ioshim.write_file_atomic path (Io.to_string dump);
  check bool_t "no .tmp left behind" false (Sys.file_exists (path ^ ".tmp"));
  (match Io.load_result path with
  | Ok { Io.dump = loaded; _ } ->
      check string_t "saved dump round-trips" (Io.to_string dump)
        (Io.to_string loaded)
  | Error e ->
      Alcotest.failf "saved dump should load: %s" (Io.dump_error_to_string e));
  Sys.remove path

(* A directory is unreadable, and the error names it as a directory. *)
let test_read_file_directory () =
  let dir = Filename.temp_dir "res-read" "" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      match Io.read_file dir with
      | Error (Io.Unreadable msg) ->
          check string_t "message" (dir ^ ": Is a directory") msg
      | Ok _ -> Alcotest.fail "a directory read as a file"
      | Error e -> Alcotest.failf "not unreadable: %s" (Io.dump_error_to_string e))

(* A missing file is unreadable, and the error names the path and the
   cause. *)
let test_read_file_missing () =
  let dir = Filename.temp_dir "res-read" "" in
  let path = Filename.concat dir "no-such.core" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      match Io.read_file path with
      | Error (Io.Unreadable msg) ->
          check string_t "message" (path ^ ": No such file or directory") msg
      | Ok _ -> Alcotest.fail "a missing file read"
      | Error e -> Alcotest.failf "not unreadable: %s" (Io.dump_error_to_string e))

(* An empty file reads as no bytes and loads as [Empty_dump]; a v1 dump,
   which has no footer, still loads, to the dump its v2 text holds. *)
let test_load_empty_and_v1 () =
  let dir = Filename.temp_dir "res-read" "" in
  let empty = Filename.concat dir "empty.core" and v1 = Filename.concat dir "v1.core" in
  let write p s = Out_channel.with_open_bin p (fun oc -> output_string oc s) in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove [ empty; v1 ];
      Sys.rmdir dir)
    (fun () ->
      write empty "";
      check bool_t "empty file reads as no bytes" true (Io.read_file empty = Ok "");
      (match Io.load_result empty with
      | Error Io.Empty_dump -> ()
      | Ok _ -> Alcotest.fail "an empty file loaded"
      | Error e -> Alcotest.failf "empty file: %s" (Io.dump_error_to_string e));
      let dump =
        Res_workloads.Truth.coredump (Res_workloads.Workloads.find "counter-race")
      in
      let v2 = Io.to_string dump in
      (* the v1 text: the v2 records under a v1 header, no footer *)
      let records = String.sub v2 0 (String.rindex_from v2 (String.length v2 - 2) '\n' + 1) in
      write v1 ("coredump v1" ^ String.sub records 11 (String.length records - 11));
      match Io.load_result v1 with
      | Ok { Io.dump = loaded; salvaged = None } ->
          check string_t "v1 dump loads" v2 (Io.to_string loaded)
      | Ok _ -> Alcotest.fail "a v1 dump needed salvage"
      | Error e -> Alcotest.failf "v1 dump: %s" (Io.dump_error_to_string e))

(* --- resume equivalence (single kill then unlimited resume) --- *)

let test_resume_bit_identical () =
  let w = Res_workloads.Workloads.find "use-after-free-a" in
  let baseline =
    (Res_faultinject.Faultinject.kr_reference w).Res_faultinject.Differential
      .bytes
  in
  List.iter
    (fun k ->
      let path = Fmt.str "resume-eq-%d.ckpt" k in
      Res_solver.Expr.reset_counter_for_tests ();
      let dump = Res_workloads.Truth.coredump w in
      let prog = w.Res_workloads.Truth.w_prog in
      let ctx = Res_core.Backstep.make_ctx prog in
      let cp =
        Ckpt.checkpointer ~every:3 ~path ~config:test_config ~prog ~dump ()
      in
      let first =
        Res_core.Res.analyze ~config:test_config
          ~budget:(Res_core.Budget.create ~fuel:k ())
          ~checkpointer:cp ctx dump
      in
      (match first with
      | Res_core.Res.Partial (Res_core.Res.Fuel_exhausted, a) ->
          check bool_t
            (Fmt.str "k=%d: partial outcome carries checkpoint path" k)
            true
            (a.Res_core.Res.checkpoint = Some path)
      | o ->
          Alcotest.failf "k=%d: expected fuel-exhausted partial, got %a" k
            Res_core.Res.pp_outcome o);
      let outcome =
        match Ckpt.load path with
        | Error e ->
            Alcotest.failf "k=%d: checkpoint load failed: %s" k
              (Io.dump_error_to_string e)
        | Ok ck ->
            let ctx' = Res_core.Backstep.make_ctx ck.Ckpt.prog in
            Res_core.Res.resume ~config:ck.Ckpt.config ctx' ck.Ckpt.dump
              ck.Ckpt.state
      in
      let rendered =
        Res_core.Report.reports_to_string ctx (Res_core.Res.analysis outcome)
      in
      check string_t (Fmt.str "k=%d: resume reconverges bit-identically" k)
        baseline rendered;
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    [ 1; 4; 9 ]

(* --- kill and resume with a live deepening carry --- *)

(* long-exec-50 deepened to 55 segments without an early stop: every
   depth continues the previous one's carry, so a kill between depths
   leaves the next depth's search suspended before its first pop and a
   kill mid-depth leaves the partial next carry in the suspended search. *)
let deep_config =
  {
    test_config with
    Res_core.Res.search =
      { test_config.Res_core.Res.search with max_segments = 55; max_nodes = 10_000 };
  }

let deep_states () =
  let w = Res_workloads.Workloads.find "long-exec-50" in
  let states = ref [] in
  let checkpointer =
    {
      Res_core.Res.ck_every = 1;
      ck_write =
        (fun st ->
          states := st :: !states;
          Ok "captured");
    }
  in
  Res_solver.Expr.reset_counter_for_tests ();
  let dump = Res_workloads.Truth.coredump w in
  let ctx = Res_core.Backstep.make_ctx w.Res_workloads.Truth.w_prog in
  let baseline =
    Res_core.Report.reports_to_string ctx
      (Res_core.Res.analysis
         (Res_core.Res.analyze ~config:deep_config ~checkpointer ctx dump))
  in
  let pick what p =
    match List.find_opt p (List.rev !states) with
    | Some st -> st
    | None -> Alcotest.failf "no %s state captured" what
  in
  let between =
    pick "between-depths" (fun st ->
        match st.Res_core.Res.ck_suspended with
        | Some s ->
            st.ck_depth >= 20
            && s.Res_core.Search.s_carry = []
            && s.s_stats = Res_core.Search.new_stats ()
        | None -> false)
  in
  let mid =
    pick "mid-depth" (fun st ->
        match st.Res_core.Res.ck_suspended with
        | Some s -> st.ck_depth >= 20 && s.Res_core.Search.s_carry <> []
        | None -> false)
  in
  (w, dump, baseline, [ ("between depths", between); ("mid-depth", mid) ])

let test_v6_roundtrip_deep_states () =
  let w, dump, _, states = deep_states () in
  List.iter
    (fun (what, state) ->
      let text =
        Ckpt.to_string
          {
            Ckpt.config = deep_config;
            prog = w.Res_workloads.Truth.w_prog;
            dump;
            state;
          }
      in
      check bool_t "v6 header" true
        (String.starts_with ~prefix:Ckpt.header text && Ckpt.header = "rescheckpoint v6");
      match Ckpt.of_string text with
      | Error e ->
          Alcotest.failf "%s: reload failed: %s" what (Io.dump_error_to_string e)
      | Ok c ->
          check string_t (what ^ " round-trips") text (Ckpt.to_string c))
    states

(* What a new process does with a state a killed one wrote: serialize,
   reload, resume from a fresh context. *)
let resume_in_new_process ?budget ?checkpointer (w : Res_workloads.Truth.t) dump
    what state =
  let text =
    Ckpt.to_string
      { Ckpt.config = deep_config; prog = w.Res_workloads.Truth.w_prog; dump; state }
  in
  match Ckpt.of_string text with
  | Error e ->
      Alcotest.failf "%s: reload failed: %s" what (Io.dump_error_to_string e)
  | Ok ck ->
      let ctx = Res_core.Backstep.make_ctx ck.Ckpt.prog in
      ( ctx,
        Res_core.Res.resume ~config:ck.Ckpt.config ?budget ?checkpointer ctx
          ck.Ckpt.dump ck.Ckpt.state )

let test_resume_with_carry () =
  let w, dump, baseline, states = deep_states () in
  List.iter
    (fun (what, state) ->
      Res_solver.Expr.reset_counter_for_tests ();
      let ctx, outcome = resume_in_new_process w dump what state in
      check string_t
        (what ^ ": resumed reports and counters are bit-identical")
        baseline
        (Res_core.Report.reports_to_string ctx (Res_core.Res.analysis outcome)))
    states

(* A resume whose deadline has already passed stops before its first
   search; the state it writes must still hold the search it was handed,
   so resuming that state finishes the never-killed run's analysis. *)
let test_resume_past_deadline () =
  let w, dump, baseline, states = deep_states () in
  let mid = List.assoc "mid-depth" states in
  Res_solver.Expr.reset_counter_for_tests ();
  let rewritten = ref None in
  let checkpointer =
    {
      Res_core.Res.ck_every = 1;
      ck_write =
        (fun st ->
          rewritten := Some st;
          Ok "captured");
    }
  in
  let _, expired =
    resume_in_new_process
      ~budget:(Res_core.Budget.create ~wall_seconds:(-1.) ())
      ~checkpointer w dump "expired resume" mid
  in
  (match expired with
  | Res_core.Res.Partial (Res_core.Res.Deadline_exceeded, _) -> ()
  | o ->
      Alcotest.failf "expected a deadline partial, got %a"
        Res_core.Res.pp_outcome o);
  match !rewritten with
  | None -> Alcotest.fail "the expired resume wrote no checkpoint"
  | Some st ->
      let ctx, outcome = resume_in_new_process w dump "final resume" st in
      check string_t "resumed past an expired deadline, then to completion"
        baseline
        (Res_core.Report.reports_to_string ctx (Res_core.Res.analysis outcome))

(* --- the kill-and-resume campaign (repeated kills + torn write) --- *)

let test_kill_resume_campaign () =
  let workloads =
    [
      Res_workloads.Workloads.find "div-by-zero";
      Res_workloads.Workloads.find "use-after-free-a";
      Res_workloads.Workloads.find "double-free";
    ]
  in
  let s =
    Res_faultinject.Faultinject.kill_resume_campaign ~kills:[ 2; 9 ]
      ~torn_kill:13 ~workloads ()
  in
  let module D = Res_faultinject.Differential in
  List.iter (Alcotest.failf "kill-resume failure: %a" D.pp_run) s.D.failures;
  check bool_t "all chains bit-identical and clean" true (s.D.ok = s.D.total)

let () =
  Alcotest.run "persist"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip over all workloads" `Quick
            test_roundtrip_all_workloads;
          Alcotest.test_case "v6 round-trip between and mid-depth" `Quick
            test_v6_roundtrip_deep_states;
          Alcotest.test_case "loader rejects damage" `Quick
            test_loader_rejects_damage;
          Alcotest.test_case "journal promotes completed write" `Quick
            test_journal_promotes_completed_write;
          Alcotest.test_case "journal discards torn write" `Quick
            test_journal_discards_torn_write;
          Alcotest.test_case "directory read names it" `Quick
            test_read_file_directory;
          Alcotest.test_case "missing file read names it" `Quick
            test_read_file_missing;
          Alcotest.test_case "empty file and v1 dump load" `Quick
            test_load_empty_and_v1;
          Alcotest.test_case "coredump save is atomic" `Quick
            test_coredump_save_atomic;
        ] );
      ( "resume",
        [
          Alcotest.test_case "resume is bit-identical" `Quick
            test_resume_bit_identical;
          Alcotest.test_case "resume with a live carry" `Quick
            test_resume_with_carry;
          Alcotest.test_case "resume past an expired deadline" `Quick
            test_resume_past_deadline;
          Alcotest.test_case "kill-and-resume campaign" `Quick
            test_kill_resume_campaign;
        ] );
    ]
