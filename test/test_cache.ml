(* The crash-only result cache: content-key derivation, sealed-entry
   store/find round trips, quarantine of damaged entries, torn-journal
   recovery at open, injected disk faults through the I/O shim, the
   triage-row codec, and cold/warm byte-identity of cached batch triage.
   The invariant under test: a cache in any state of disrepair — torn,
   bit-flipped, garbage, or on a failing disk — changes triage wall
   clock, never triage bytes. *)

module Cache = Res_cache.Cache
module Sealing = Res_core.Sealing
module Shim = Res_core.Ioshim
module Io = Res_vm.Coredump_io

(* Each test's directory is a fresh one under one scratch root per run,
   which the test process (not a forked worker) removes at exit. *)
let tmp_dir =
  let root =
    lazy
      (let root =
         Filename.concat
           (Filename.get_temp_dir_name ())
           (Fmt.str "res-cache-test-%d" (Unix.getpid ()))
       in
       let owner = Unix.getpid () in
       Res_faultinject.Fleet.rm_rf root;
       Unix.mkdir root 0o755;
       at_exit (fun () ->
           if Unix.getpid () = owner then Res_faultinject.Fleet.rm_rf root);
       root)
  in
  let count = ref 0 in
  fun () ->
    incr count;
    let d = Filename.concat (Lazy.force root) (string_of_int !count) in
    Unix.mkdir d 0o755;
    d

(* --- content keys ----------------------------------------------------- *)

let test_content_key_shape () =
  let k = Sealing.content_key [ "prog"; "dump"; "config" ] in
  Alcotest.(check int) "16 hex chars" 16 (String.length k);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    k;
  Alcotest.(check string) "deterministic" k
    (Sealing.content_key [ "prog"; "dump"; "config" ])

let test_content_key_part_boundaries () =
  (* length-prefixed folding: moving a byte across a part boundary must
     change the key, or (prog="ab", dump="c") would collide with
     (prog="a", dump="bc") *)
  Alcotest.(check bool) "boundary shift changes key" false
    (String.equal
       (Sealing.content_key [ "ab"; "c" ])
       (Sealing.content_key [ "a"; "bc" ]));
  Alcotest.(check bool) "any byte changes key" false
    (String.equal
       (Sealing.content_key [ "prog"; "dump"; "config" ])
       (Sealing.content_key [ "prog"; "dump"; "confih" ]))

(* Known answers: every key on disk depends on these bytes, so a change
   to the hash must fail here and come with a [rescache v<n>] bump.  The
   parts cover the empty string, a tail-only part, whole words, and
   words plus a tail. *)
let test_content_key_known_answers () =
  List.iter
    (fun (parts, want) ->
      Alcotest.(check string)
        (String.concat "|" (List.map String.escaped parts))
        want
        (Sealing.content_key parts))
    [
      ([], "84d69dcef1e6733a");
      ([ "" ], "4e9987e432ac940d");
      ([ "prog"; "dump"; "config" ], "5d74e24e2c8ab8ea");
      ([ "12345678"; "abcdefghijklmnop"; "a\000b\rc\195\169" ], "1ff4d9d83cf76f6d");
      ([ String.make 1000 'x'; "coredump v2\n" ], "2b1ccdcac22892da");
    ];
  Alcotest.(check string) "Cache.key is content_key of its parts"
    (Sealing.content_key [ "prog"; "dump"; "config" ])
    (Cache.key ~prog:"prog" ~dump:"dump" ~config:"config");
  Alcotest.(check string) "key_of_hashes is Cache.key"
    (Cache.key ~prog:"prog" ~dump:"dump" ~config:"config")
    (Cache.key_of_hashes ~prog:(Sealing.hash64 "prog")
       ~dump:(Sealing.hash64 "dump") ~config:(Sealing.hash64 "config"));
  (* the hand-written hex digits are what [%016Lx] writes *)
  let rng = Random.State.make [| 16 |] in
  List.iter
    (fun hs ->
      Alcotest.(check string) "key digits" (Printf.sprintf "%016Lx" (Sealing.combine64 hs))
        (Sealing.key_of_hashes hs))
    ([ []; [ 0L ]; [ -1L ]; [ Int64.min_int; Int64.max_int ] ]
    @ List.init 200 (fun i -> List.init (i mod 4) (fun _ -> Random.State.bits64 rng)))

(* --- store / find round trip ------------------------------------------ *)

let test_store_find_roundtrip () =
  let c = Cache.openr (tmp_dir ()) in
  let k = Cache.key ~prog:"p" ~dump:"d" ~config:"cfg" in
  Alcotest.(check bool) "empty cache misses" true (Cache.find c k = None);
  Cache.store c k "verdict body";
  (match Cache.find c k with
  | Some body -> Alcotest.(check string) "body back" "verdict body\n" body
  | None -> Alcotest.fail "stored entry did not hit");
  let s = Cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one store" 1 s.Cache.stores;
  Alcotest.(check int) "nothing quarantined" 0 s.Cache.quarantined

let test_entries_survive_reopen () =
  let dir = tmp_dir () in
  let c = Cache.openr dir in
  let k = Cache.key ~prog:"p" ~dump:"d" ~config:"cfg" in
  Cache.store c k "verdict body";
  let c2 = Cache.openr dir in
  Alcotest.(check bool) "hit after reopen" true
    (Cache.find c2 k = Some "verdict body\n");
  Alcotest.(check int) "one entry on disk" 1 (Cache.entry_count dir)

(* --- damage degrades to recompute ------------------------------------- *)

let test_damaged_entry_quarantined () =
  let dir = tmp_dir () in
  let c = Cache.openr dir in
  let k = Cache.key ~prog:"p" ~dump:"d" ~config:"cfg" in
  Cache.store c k "verdict body";
  let path = Filename.concat dir (k ^ ".entry") in
  let src = match Io.read_file path with Ok s -> s | Error _ -> "" in
  let b = Bytes.of_string src in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  Alcotest.(check bool) "flipped bit reads as a miss" true
    (Cache.find c k = None);
  Alcotest.(check int) "entry quarantined" 1 (Cache.stats c).Cache.quarantined;
  Alcotest.(check bool) "entry moved out of the index" false
    (Sys.file_exists path);
  Alcotest.(check bool) "quarantined copy kept for the post-mortem" true
    (Sys.file_exists
       (Filename.concat (Filename.concat dir "quarantine") (k ^ ".entry")));
  (* the caller recomputes and re-stores: the key serves again *)
  Cache.store c k "verdict body";
  Alcotest.(check bool) "re-stored entry hits" true
    (Cache.find c k = Some "verdict body\n")

let test_garbage_cache_is_cold_cache () =
  let dir = tmp_dir () in
  let c = Cache.openr dir in
  let k = Cache.key ~prog:"p" ~dump:"d" ~config:"cfg" in
  let oc = open_out_bin (Filename.concat dir (k ^ ".entry")) in
  output_string oc "total garbage, never sealed";
  close_out oc;
  Alcotest.(check bool) "garbage is a miss, not a crash" true
    (Cache.find c k = None);
  Cache.store c k "real verdict";
  Alcotest.(check bool) "healed" true (Cache.find c k = Some "real verdict\n")

let test_torn_journal_recovered_at_open () =
  let dir = tmp_dir () in
  let c = Cache.openr dir in
  let k = Cache.key ~prog:"p" ~dump:"d" ~config:"cfg" in
  Cache.store c k "verdict body";
  (* a writer died mid-write: a torn (unsealed) tmp journal remains *)
  let torn = Io.fresh_tmp_path (Filename.concat dir (k ^ ".entry")) in
  let oc = open_out_bin torn in
  output_string oc "rescache v1\nhalf an entr";
  close_out oc;
  ignore (Cache.openr dir);
  Alcotest.(check bool) "torn journal deleted at open" false
    (Sys.file_exists torn);
  Alcotest.(check bool) "intact entry untouched" true
    (Cache.find (Cache.openr dir) k = Some "verdict body\n")

(* --- injected disk faults --------------------------------------------- *)

let test_store_survives_injected_faults () =
  let dir = tmp_dir () in
  let c = Cache.openr dir in
  let k = Cache.key ~prog:"p" ~dump:"d" ~config:"cfg" in
  List.iter
    (fun f ->
      Shim.with_injector
        (fun op path ->
          match op with
          | Shim.Write when String.length path >= String.length dir -> Some f
          | _ -> None)
        (fun () -> Cache.store c k "verdict body"))
    [ Shim.Enospc; Shim.Eio; Shim.Fsync_fail; Shim.Torn 7 ];
  let s = Cache.stats c in
  Alcotest.(check int) "every faulted store counted" 4 s.Cache.store_failures;
  Alcotest.(check int) "no faulted store claimed success" 0 s.Cache.stores;
  (* write faults leave realistic torn journals; reopen sweeps them *)
  ignore (Cache.openr dir);
  Array.iter
    (fun e ->
      Alcotest.(check bool) "no .tmp survives reopen" false
        (Filename.check_suffix e ".tmp"))
    (Sys.readdir dir);
  (* the disk healed: the same store now lands *)
  Cache.store c k "verdict body";
  Alcotest.(check bool) "store after faults hits" true
    (Cache.find c k = Some "verdict body\n")

let test_read_fault_degrades_to_miss () =
  let dir = tmp_dir () in
  let c = Cache.openr dir in
  let k = Cache.key ~prog:"p" ~dump:"d" ~config:"cfg" in
  Cache.store c k "verdict body";
  Shim.with_injector
    (fun op _ -> match op with Shim.Read -> Some Shim.Eio | _ -> None)
    (fun () ->
      Alcotest.(check bool) "EIO on read is a miss" true
        (Cache.find c k = None));
  Alcotest.(check int) "unreadable entry quarantined" 1
    (Cache.stats c).Cache.quarantined

let test_injector_restored_on_exit () =
  (try
     Shim.with_injector
       (fun _ _ -> Some Shim.Eio)
       (fun () -> raise Exit)
   with Exit -> ());
  let dir = tmp_dir () in
  let c = Cache.openr dir in
  let k = Cache.key ~prog:"p" ~dump:"d" ~config:"cfg" in
  Cache.store c k "body";
  Alcotest.(check bool) "faults do not leak past with_injector" true
    (Cache.find c k = Some "body\n")

let test_mkdir_fault_means_cold_forever () =
  let dir =
    Filename.concat (tmp_dir ()) "never-created"
  in
  let c =
    Shim.with_injector
      (fun op _ -> match op with Shim.Mkdir -> Some Shim.Eio | _ -> None)
      (fun () -> Cache.openr dir)
  in
  let k = Cache.key ~prog:"p" ~dump:"d" ~config:"cfg" in
  Alcotest.(check bool) "openr never raises; lookups miss" true
    (Cache.find c k = None);
  Cache.store c k "body";
  Alcotest.(check int) "stores into the void fail softly" 1
    (Cache.stats c).Cache.store_failures

(* --- the triage-row codec --------------------------------------------- *)

let test_row_roundtrip () =
  let r =
    {
      Cache.c_outcome = "complete";
      c_timeout = false;
      c_bucket = "div-zero @ main+3";
      c_cause = "x := 0 \"quoted\"\nnewline";
      c_nodes = 42;
      c_pruned = 7;
      c_queries = 99;
    }
  in
  List.iter
    (fun r ->
      Alcotest.(check (option Verdicts.testable))
        "row round-trips" (Some r)
        (Cache.decode_row (Cache.encode_row r)))
    (r :: Verdicts.generate 300)

(* The text [%S] escapes as [\r] and [\ddd] (CR, NUL, bytes above 127)
   comes back whole through the cache body and the pool reply frame. *)
let test_row_escaped_bytes_round_trip () =
  let c = Cache.openr (tmp_dir ()) in
  List.iter
    (fun text ->
      let r =
        {
          (Cache.failed_row ~bucket:text ~cause:("cause: " ^ text ^ text)) with
          c_outcome = "complete";
          c_nodes = 3;
        }
      in
      let k = Cache.key ~prog:"p" ~dump:text ~config:"cfg" in
      Cache.store c k (Cache.encode_row r);
      Alcotest.(check (option Verdicts.testable))
        "cache body round-trips" (Some r)
        (Option.bind (Cache.find c k) Cache.decode_row);
      match
        Res_parallel.Wire.decode_verdict (Res_parallel.Wire.encode_verdict ~index:7 r)
      with
      | Ok (i, r') ->
          Alcotest.(check int) "frame index" 7 i;
          Alcotest.(check Verdicts.testable) "pool frame round-trips" r r'
      | Error e -> Alcotest.fail e)
    [ "a\rb"; "\000"; "caf\195\169" ]

let test_row_decode_rejects_garbage () =
  Alcotest.(check bool) "garbage body is an honest miss" true
    (Cache.decode_row "not a verdict at all" = None);
  Alcotest.(check bool) "truncated body is an honest miss" true
    (Cache.decode_row "verdict \"complete\" 0" = None)

let test_row_config_covers_budgets () =
  let base = Cache.row_config ~wall:(Some 5.) ~fuel:(Some 100) ~engine:"e" in
  Alcotest.(check bool) "wall in key" false
    (String.equal base (Cache.row_config ~wall:(Some 6.) ~fuel:(Some 100) ~engine:"e"));
  Alcotest.(check bool) "fuel in key" false
    (String.equal base (Cache.row_config ~wall:(Some 5.) ~fuel:None ~engine:"e"));
  Alcotest.(check bool) "engine in key" false
    (String.equal base (Cache.row_config ~wall:(Some 5.) ~fuel:(Some 100) ~engine:"f"))

(* A row stored under the key shape before [Cache.analysis_version]
   existed is a miss: a cache filled by an older analysis never answers
   for the current one. *)
let test_previous_analysis_tag_misses () =
  let dir = tmp_dir () in
  let c = Cache.openr dir in
  let engine = "batch 8 8 1000 true true true 1 true 3" in
  let key config = Cache.key ~prog:"p" ~dump:"d" ~config in
  let previous = key (Fmt.str "%s wall=none fuel=none rowv2" engine) in
  Cache.store c previous
    (Cache.encode_row (Cache.failed_row ~bucket:"stale" ~cause:"old analysis"));
  Alcotest.(check bool) "the previous tag's entry is stored" true
    (Cache.find c previous <> None);
  let current = key (Cache.row_config ~wall:None ~fuel:None ~engine) in
  Alcotest.(check bool) "the current key differs" false
    (String.equal previous current);
  Alcotest.(check bool) "the current key misses" true
    (Cache.find c current = None)

(* --- cached batch triage ---------------------------------------------- *)

let batch_items () =
  List.map
    (fun (r : Res_workloads.Corpus.report) ->
      {
        Res_parallel.Batch.it_name = Fmt.str "%s-%02d" r.r_bug r.r_id;
        it_prog = r.r_prog;
        it_dump = Ok r.r_dump;
      })
    (Res_workloads.Corpus.generate ~n_per_bug:1 ())

let test_batch_cold_warm_identity () =
  let items = batch_items () in
  let n = List.length items in
  let backend = Res_parallel.Pool.Forked in
  let baseline = Res_parallel.Batch.run ~jobs:1 ~backend items in
  let dir = tmp_dir () in
  let cold = Res_parallel.Batch.run ~jobs:1 ~backend ~cache:(Cache.openr dir) items in
  Alcotest.(check string) "cold TSV = uncached TSV"
    baseline.Res_parallel.Batch.tsv cold.Res_parallel.Batch.tsv;
  Alcotest.(check int) "cold run hit nothing" 0
    cold.Res_parallel.Batch.cache_hits;
  Alcotest.(check int) "every verdict stored" n (Cache.entry_count dir);
  let warm_cache = Cache.openr dir in
  let warm = Res_parallel.Batch.run ~jobs:1 ~backend ~cache:warm_cache items in
  Alcotest.(check string) "warm TSV = cold TSV"
    cold.Res_parallel.Batch.tsv warm.Res_parallel.Batch.tsv;
  Alcotest.(check int) "every row from the cache" n
    warm.Res_parallel.Batch.cache_hits;
  Alcotest.(check int) "warm run analyzed nothing" n
    (Cache.stats warm_cache).Cache.hits

let test_batch_budget_change_is_a_miss () =
  let items = batch_items () in
  let backend = Res_parallel.Pool.Forked in
  let dir = tmp_dir () in
  ignore (Res_parallel.Batch.run ~jobs:1 ~backend ~cache:(Cache.openr dir) items);
  (* a different fuel budget can change the verdict: it must never be
     served from entries computed under the old budget *)
  let other =
    Res_parallel.Batch.run ~jobs:1 ~backend ~budget_fuel:1_000_000
      ~cache:(Cache.openr dir) items
  in
  Alcotest.(check int) "budget change misses everything" 0
    other.Res_parallel.Batch.cache_hits

(* A verdict that burned its whole budget describes what that run
   managed, not what the inputs mean: it is never stored, so the rerun
   analyzes those dumps again instead of serving the truncated verdict. *)
let test_batch_timeout_not_cached () =
  let items = batch_items () in
  let n = List.length items in
  let timed_out =
    List.length
      (List.filter
         (fun (it : Res_parallel.Batch.item) ->
           (Res_usecases.Triage.triage_one
              ~budget:(Res_core.Budget.create ~fuel:1 ())
              it.it_prog (Result.get_ok it.it_dump))
             .Cache.c_timeout)
         items)
  in
  Alcotest.(check bool) "fuel 1 times some dumps out" true (timed_out > 0);
  let backend = Res_parallel.Pool.Forked in
  let dir = tmp_dir () in
  let cold_cache = Cache.openr dir in
  let cold =
    Res_parallel.Batch.run ~jobs:1 ~backend ~budget_fuel:1 ~cache:cold_cache
      items
  in
  Alcotest.(check int) "only the verdicts that finished are stored"
    (n - timed_out) (Cache.stats cold_cache).Cache.stores;
  let warm_cache = Cache.openr dir in
  let warm =
    Res_parallel.Batch.run ~jobs:1 ~backend ~budget_fuel:1 ~cache:warm_cache
      items
  in
  Alcotest.(check int) "the rerun re-analyzes the timed-out dumps" timed_out
    (Cache.stats warm_cache).Cache.misses;
  Alcotest.(check int) "and serves the rest" (n - timed_out)
    warm.Res_parallel.Batch.cache_hits;
  Alcotest.(check string) "same TSV" cold.Res_parallel.Batch.tsv
    warm.Res_parallel.Batch.tsv

let test_batch_reverse_exec_flip_is_a_miss () =
  let items = batch_items () in
  let backend = Res_parallel.Pool.Forked in
  let dir = tmp_dir () in
  ignore (Res_parallel.Batch.run ~jobs:1 ~backend ~cache:(Cache.openr dir) items);
  (* disabling the concrete reverse-execution fast path must not be
     served entries computed with it on: equivalence between the two
     modes is an invariant under test elsewhere, never an assumption
     the cache may bake in *)
  let config =
    {
      Res_core.Res.default_config with
      search =
        { Res_core.Search.default_config with reverse_exec = false };
    }
  in
  let other =
    Res_parallel.Batch.run ~jobs:1 ~backend ~config ~cache:(Cache.openr dir)
      items
  in
  Alcotest.(check int) "reverse-exec flip misses everything" 0
    other.Res_parallel.Batch.cache_hits;
  (* same flag again: now every row is served from the second run's
     entries *)
  let again =
    Res_parallel.Batch.run ~jobs:1 ~backend ~config ~cache:(Cache.openr dir)
      items
  in
  Alcotest.(check int) "same flag hits everything" (List.length items)
    again.Res_parallel.Batch.cache_hits

(* Every corpus dump again under a second name, content-equal but
   physically distinct: the dump round-tripped through the dump codec and,
   for every other one, the program reparsed from its text. *)
let with_copies items =
  items
  @ List.mapi
      (fun i (it : Res_parallel.Batch.item) ->
        {
          Res_parallel.Batch.it_name = "copy-" ^ it.it_name;
          it_prog =
            (if i mod 2 = 0 then it.it_prog
             else
               Res_ir.Validate.check_exn
                 (Res_ir.Parser.parse (Res_ir.Prog.to_string it.it_prog)));
          it_dump = Ok (Io.of_string (Io.to_string (Result.get_ok it.it_dump)));
        })
      items

(* A duplicate shares its representative's key: the cold run stores each
   key once, and the warm run serves every row, copies included, from
   one lookup per key. *)
let test_batch_duplicates_stored_once () =
  let distinct = List.length (batch_items ()) in
  let items = with_copies (batch_items ()) in
  let n = List.length items in
  let backend = Res_parallel.Pool.Forked in
  let dir = tmp_dir () in
  let cold_cache = Cache.openr dir in
  let cold = Res_parallel.Batch.run ~jobs:1 ~backend ~cache:cold_cache items in
  Alcotest.(check int) "copies are duplicates" (n - distinct)
    cold.Res_parallel.Batch.duplicates;
  Alcotest.(check int) "each key stored once" distinct
    (Cache.stats cold_cache).Cache.stores;
  Alcotest.(check int) "one entry per key" distinct (Cache.entry_count dir);
  let warm_cache = Cache.openr dir in
  let warm = Res_parallel.Batch.run ~jobs:1 ~backend ~cache:warm_cache items in
  Alcotest.(check int) "every row from the cache" n
    warm.Res_parallel.Batch.cache_hits;
  Alcotest.(check int) "a cached row is no duplicate" 0
    warm.Res_parallel.Batch.duplicates;
  Alcotest.(check (list int)) "a warm run issues no work" [ 0; 0; 0 ]
    Res_parallel.Batch.
      [ warm.worker_nodes; warm.worker_pruned; warm.worker_queries ];
  Alcotest.(check int) "one lookup per key" distinct
    (Cache.stats warm_cache).Cache.hits;
  Alcotest.(check string) "warm TSV = cold TSV" cold.Res_parallel.Batch.tsv
    warm.Res_parallel.Batch.tsv

(* A timed-out representative's verdict is shared with its copies, and
   neither is stored. *)
let test_batch_timed_out_duplicates () =
  let originals = batch_items () in
  let timed_out =
    List.length
      (List.filter
         (fun (it : Res_parallel.Batch.item) ->
           (Res_usecases.Triage.triage_one
              ~budget:(Res_core.Budget.create ~fuel:1 ())
              it.it_prog (Result.get_ok it.it_dump))
             .Cache.c_timeout)
         originals)
  in
  Alcotest.(check bool) "fuel 1 times some dumps out" true (timed_out > 0);
  let dir = tmp_dir () in
  let c = Cache.openr dir in
  let t =
    Res_parallel.Batch.run ~jobs:1 ~backend:Res_parallel.Pool.Forked
      ~budget_fuel:1 ~cache:c (with_copies originals)
  in
  Alcotest.(check int) "only finished verdicts stored, each once"
    (List.length originals - timed_out)
    (Cache.stats c).Cache.stores;
  let row name =
    let r =
      List.find (fun r -> r.Res_parallel.Batch.row_name = name) t.rows
    in
    { r with row_name = "" }
  in
  List.iter
    (fun (it : Res_parallel.Batch.item) ->
      Alcotest.(check bool)
        (it.it_name ^ ": copy row = its representative's")
        true
        (row it.it_name = row ("copy-" ^ it.it_name)))
    originals

(* --- batch keys ---------------------------------------------------------- *)

(* A mixed-program corpus whose names interleave the families once
   sorted, plus dumps of one program each carried by its own physically
   distinct parse of that program.  Every key the batch stores is
   [Cache.key] of the parts' text, and a warm re-run hits every dump. *)
let test_batch_keys_are_cache_keys () =
  let reports = Res_workloads.Corpus.generate ~n_per_bug:2 () in
  let reparse p =
    Res_ir.Validate.check_exn (Res_ir.Parser.parse (Res_ir.Prog.to_string p))
  in
  let item name prog dump =
    { Res_parallel.Batch.it_name = name; it_prog = prog; it_dump = Ok dump }
  in
  let div0 = Res_workloads.Div_zero.workload in
  let div0_dump = Res_workloads.Truth.coredump div0 in
  let items =
    List.map
      (fun (r : Res_workloads.Corpus.report) ->
        item (Fmt.str "%d-%s-%02d" (r.r_id mod 3) r.r_bug r.r_id) r.r_prog r.r_dump)
      reports
    @ List.init 6 (fun i ->
          item (Fmt.str "%d-copy-%02d" (i mod 3) i) (reparse div0.w_prog) div0_dump)
  in
  let expected =
    List.sort_uniq compare
      (List.map
         (fun (it : Res_parallel.Batch.item) ->
           Cache.key
             ~prog:(Res_ir.Prog.to_string it.it_prog)
             ~dump:(Io.to_string (Result.get_ok it.it_dump))
             ~config:(Res_parallel.Batch.config_key Res_core.Res.default_config))
         items)
  in
  let dir = tmp_dir () in
  let backend = Res_parallel.Pool.Forked in
  ignore (Res_parallel.Batch.run ~jobs:1 ~backend ~cache:(Cache.openr dir) items);
  let stored =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".entry" f)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "stored keys = Cache.key of the parts" expected
    stored;
  let warm =
    Res_parallel.Batch.run ~jobs:1 ~backend ~cache:(Cache.openr dir) items
  in
  Alcotest.(check int) "warm run hits every dump" (List.length items)
    warm.Res_parallel.Batch.cache_hits

(* No two distinct (program, dump) pairs of the E18 corpus (about 10k
   dumps) share a key.  The corpus repeats a handful of crashes, so every
   one-bit variant of each distinct dump is keyed too: some 30k
   near-identical inputs, the case a weak mixing step would collide on. *)
let test_no_key_collisions_e18 () =
  let config = Res_parallel.Batch.config_key Res_core.Res.default_config in
  let prog_texts = ref [] in
  let prog_text p =
    match List.assq_opt p !prog_texts with
    | Some s -> s
    | None ->
        let s = Res_ir.Prog.to_string p in
        prog_texts := (p, s) :: !prog_texts;
        s
  in
  let seen = Hashtbl.create 16384 in
  let add prog dump =
    let k = Cache.key ~prog ~dump ~config in
    match Hashtbl.find_opt seen k with
    | Some pair when pair <> (prog, dump) -> Alcotest.failf "key %s collides" k
    | Some _ -> ()
    | None -> Hashtbl.add seen k (prog, dump)
  in
  let reports = Res_workloads.Corpus.generate ~n_per_bug:3333 () in
  List.iter
    (fun (r : Res_workloads.Corpus.report) ->
      add (prog_text r.r_prog) (Io.to_string r.r_dump))
    reports;
  let distinct = Hashtbl.to_seq_values seen |> List.of_seq in
  List.iter
    (fun (prog, dump) ->
      String.iteri
        (fun i c ->
          for bit = 0 to 7 do
            let b = Bytes.of_string dump in
            Bytes.set b i (Char.chr (Char.code c lxor (1 lsl bit)));
            add prog (Bytes.to_string b)
          done)
        dump)
    distinct;
  Alcotest.(check bool)
    (Fmt.str "%d dumps, %d distinct pairs, %d keys" (List.length reports)
       (List.length distinct) (Hashtbl.length seen))
    true
    (List.length reports >= 10_000 && Hashtbl.length seen >= 30_000)

let () =
  Alcotest.run "cache"
    [
      ( "keys",
        [
          Alcotest.test_case "content key shape" `Quick test_content_key_shape;
          Alcotest.test_case "part boundaries matter" `Quick
            test_content_key_part_boundaries;
          Alcotest.test_case "content key known answers" `Quick
            test_content_key_known_answers;
          Alcotest.test_case "previous analysis tag is a miss" `Quick
            test_previous_analysis_tag_misses;
          Alcotest.test_case "row_config covers budgets" `Quick
            test_row_config_covers_budgets;
        ] );
      ( "entries",
        [
          Alcotest.test_case "store/find round trip" `Quick
            test_store_find_roundtrip;
          Alcotest.test_case "entries survive reopen" `Quick
            test_entries_survive_reopen;
          Alcotest.test_case "damaged entry quarantined" `Quick
            test_damaged_entry_quarantined;
          Alcotest.test_case "garbage cache is a cold cache" `Quick
            test_garbage_cache_is_cold_cache;
          Alcotest.test_case "torn journal recovered at open" `Quick
            test_torn_journal_recovered_at_open;
        ] );
      ( "faults",
        [
          Alcotest.test_case "store survives injected faults" `Quick
            test_store_survives_injected_faults;
          Alcotest.test_case "read fault degrades to miss" `Quick
            test_read_fault_degrades_to_miss;
          Alcotest.test_case "injector restored on exit" `Quick
            test_injector_restored_on_exit;
          Alcotest.test_case "mkdir fault means cold forever" `Quick
            test_mkdir_fault_means_cold_forever;
        ] );
      ( "rows",
        [
          Alcotest.test_case "row round trip" `Quick test_row_roundtrip;
          Alcotest.test_case "escaped bytes round trip" `Quick
            test_row_escaped_bytes_round_trip;
          Alcotest.test_case "decode rejects garbage" `Quick
            test_row_decode_rejects_garbage;
        ] );
      ( "batch",
        [
          Alcotest.test_case "cold/warm byte identity" `Quick
            test_batch_cold_warm_identity;
          Alcotest.test_case "budget change is a miss" `Quick
            test_batch_budget_change_is_a_miss;
          Alcotest.test_case "timed-out verdicts are not cached" `Quick
            test_batch_timeout_not_cached;
          Alcotest.test_case "reverse-exec flip is a miss" `Quick
            test_batch_reverse_exec_flip_is_a_miss;
          Alcotest.test_case "duplicates stored once" `Quick
            test_batch_duplicates_stored_once;
          Alcotest.test_case "timed-out duplicates share the row" `Quick
            test_batch_timed_out_duplicates;
          Alcotest.test_case "stored keys are Cache.key" `Quick
            test_batch_keys_are_cache_keys;
          Alcotest.test_case "no key collisions on the E18 corpus" `Quick
            test_no_key_collisions_e18;
        ] );
    ]
