(* Worker pool behaviour on both backends, the batch wire codec, and
   deterministic batch triage for any worker count.

   Suite ordering is load-bearing: the OCaml runtime forbids Unix.fork
   once any domain has been spawned, so every fork-backend test runs
   before the first domains-backend test (Pool enforces this with a clear
   error; these suites are arranged to respect it). *)

module Pool = Res_parallel.Pool
module Supervisor = Res_parallel.Supervisor
module Wire = Res_parallel.Wire
module Batch = Res_parallel.Batch

(* --- pool: fork phase ----------------------------------------------- *)

let test_pool_order_fork () =
  let worker () = fun s -> "r:" ^ s in
  let units = List.init 13 (fun i -> Fmt.str "u%d" i) in
  let replies, stats = Pool.run ~backend:Pool.Forked ~jobs:4 ~worker units in
  Alcotest.(check (list (option string)))
    "replies in request order"
    (List.map (fun u -> Some ("r:" ^ u)) units)
    replies;
  Alcotest.(check int) "no lost units" 0 stats.Pool.p_lost

let test_pool_worker_exception_fork () =
  (* A deterministic per-unit exception is a permanent failure: the unit
     reads back as None and is NOT retried (same input, same crash). *)
  let worker () = fun s -> if s = "boom" then failwith "boom" else s in
  let replies, stats =
    Pool.run ~backend:Pool.Forked ~jobs:2 ~worker [ "a"; "boom"; "b" ]
  in
  Alcotest.(check (list (option string)))
    "exception -> None"
    [ Some "a"; None; Some "b" ] replies;
  Alcotest.(check int) "counted lost" 1 stats.Pool.p_lost;
  Alcotest.(check int) "not retried" 0 stats.Pool.p_retries

let test_pool_kill_reschedules () =
  (* SIGKILL a forked worker mid-unit: the coordinator must detect the
     death, respawn, and re-run the unit — every reply present. *)
  let worker () =
   fun s ->
    if s = "slow" then Unix.sleepf 0.3;
    "r:" ^ s
  in
  let units = [ "a"; "slow"; "b"; "c" ] in
  let replies, stats =
    Pool.run ~backend:Pool.Forked ~jobs:2 ~kill_unit:1 ~worker units
  in
  Alcotest.(check (list (option string)))
    "all units answered despite the kill"
    (List.map (fun u -> Some ("r:" ^ u)) units)
    replies;
  Alcotest.(check bool) "unit was rescheduled" true (stats.Pool.p_retries >= 1);
  Alcotest.(check int) "nothing lost" 0 stats.Pool.p_lost

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

(* Descriptors besides the kept workers' two pipe ends each. *)
let fds_beside_kept () =
  fd_count () - (2 * List.length (Supervisor.kept_pids ()))

(* A kill late in the queue takes a worker out of the pool, and the
   fork that replaces it, in that run or the next, makes pipes that
   reuse the dead worker's descriptor numbers: the dead worker's ends
   must never be closed a second time, or the new worker's pipe goes
   with them.  The replacement is kept, so later runs go through those
   reused numbers: each of 20 runs must answer every unit and leave no
   descriptor behind. *)
let test_pool_kill_after_retirement () =
  let worker () s =
    Unix.sleepf 0.003;
    s
  in
  let units = List.init 14 string_of_int in
  ignore (Pool.run ~backend:Pool.Forked ~jobs:3 ~worker units);
  let fds = fds_beside_kept () in
  let respawns = ref 0 in
  for _ = 1 to 20 do
    let replies, stats =
      Pool.run ~backend:Pool.Forked ~jobs:3 ~kill_unit:12 ~worker units
    in
    Alcotest.(check (list (option string)))
      "all units answered" (List.map Option.some units) replies;
    Alcotest.(check int) "nothing lost" 0 stats.Pool.p_lost;
    Alcotest.(check int) "no descriptor left behind" fds (fds_beside_kept ());
    respawns := !respawns + stats.Pool.p_respawns
  done;
  Alcotest.(check bool) "killed workers were replaced" true (!respawns > 0)

(* The same kill late in the queue on local slots, which retire as the
   queue empties: the respawned child's pipes reuse the descriptor
   numbers of siblings that retired before it. *)
let test_local_kill_after_retirement () =
  let units = List.init 14 string_of_int in
  let fds = fd_count () in
  for _ = 1 to 20 do
    let armed = ref true in
    let slots, _ =
      Supervisor.local
        ~kill:(fun u _ -> u = "12" && !armed && (armed := false; true))
        ~jobs:3 ~payload:Fun.id
        ~worker:(fun () s ->
          Unix.sleepf 0.003;
          s)
        ()
    in
    let sup = Supervisor.create slots in
    List.iter (Supervisor.add sup) units;
    let replies = Hashtbl.create 16 in
    Supervisor.run sup (fun u r -> Hashtbl.replace replies u r);
    Alcotest.(check (list (result string string)))
      "all units answered"
      (List.map Result.ok units)
      (List.map (Hashtbl.find replies) units);
    Alcotest.(check int) "no descriptor left behind" fds (fd_count ())
  done

(* A caller that runs no later batch retires the workers with its run:
   it reuses the kept ones, and leaves no child behind. *)
let test_pool_keep_false_retires () =
  let worker () s = "r:" ^ s in
  let units = [ "a"; "b"; "c" ] in
  ignore (Pool.run ~backend:Pool.Forked ~jobs:2 ~worker units);
  let replies, stats =
    Pool.run ~backend:Pool.Forked ~keep:false ~jobs:2 ~worker units
  in
  Alcotest.(check (list (option string)))
    "replies" (List.map (fun u -> Some ("r:" ^ u)) units) replies;
  Alcotest.(check int) "run on the kept workers" 0 stats.Pool.p_forked;
  Alcotest.(check (list int)) "none kept" [] (Supervisor.kept_pids ());
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "waitpid found a child (%d)" pid

(* A worker that cannot be marshalled (it holds a mutex) cannot be sent
   to a kept worker: the run forks its own, which inherit it, in place
   of the idle ones, and counts no respawn. *)
let test_pool_unshippable_worker () =
  Supervisor.stop_kept ();
  ignore (Pool.run ~backend:Pool.Forked ~jobs:2 ~worker:(fun () s -> s) [ "a" ]);
  let before = Supervisor.kept_pids () in
  let m = Mutex.create () in
  let worker () s = Mutex.protect m (fun () -> "m:" ^ s) in
  let units = [ "a"; "b"; "c" ] in
  let replies, stats = Pool.run ~backend:Pool.Forked ~jobs:2 ~worker units in
  Alcotest.(check (list (option string)))
    "replies" (List.map (fun u -> Some ("m:" ^ u)) units) replies;
  Alcotest.(check int) "no respawn" 0 stats.Pool.p_respawns;
  Alcotest.(check bool) "the idle workers were replaced" true
    (List.for_all (fun p -> not (List.mem p (Supervisor.kept_pids ()))) before)

(* The exit hook runs in every process that exits through [exit],
   forked children included; a child forked after the workers exist
   must leave its parent's workers alone. *)
let test_exit_hook_spares_parent_workers () =
  let worker () s = "r:" ^ s in
  let units = [ "a"; "b"; "c" ] in
  Supervisor.stop_kept ();
  ignore (Pool.run ~backend:Pool.Forked ~jobs:2 ~worker units);
  let pids = Supervisor.kept_pids () in
  Alcotest.(check int) "two workers kept" 2 (List.length pids);
  flush_all ();
  (match Unix.fork () with
  | 0 ->
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 null Unix.stdout;
      Unix.dup2 null Unix.stderr;
      exit 0
  | pid -> ignore (Unix.waitpid [] pid));
  let replies, stats = Pool.run ~backend:Pool.Forked ~jobs:2 ~worker units in
  Alcotest.(check (list (option string)))
    "the next run is answered"
    (List.map (fun u -> Some ("r:" ^ u)) units)
    replies;
  Alcotest.(check int) "by the same workers, none forked" 0 stats.Pool.p_forked;
  Alcotest.(check (list int)) "the same pids" pids (Supervisor.kept_pids ())

(* After the exit hook, the process has no child left, zombie or alive. *)
let test_exit_hook_reaps_workers () =
  ignore
    (Pool.run ~backend:Pool.Forked ~jobs:2
       ~worker:(fun () s -> s)
       [ "a"; "b" ]);
  let pids = Supervisor.kept_pids () in
  Alcotest.(check bool) "workers kept" true (pids <> []);
  Supervisor.stop_kept ();
  Alcotest.(check (list int)) "none kept" [] (Supervisor.kept_pids ());
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "waitpid found a child (%d)" pid

(* --- wire (no pool) ------------------------------------------------- *)

let test_wire_roundtrip () =
  List.iteri
    (fun i v ->
      let index = i * 7919 in
      match Wire.decode_verdict (Wire.encode_verdict ~index v) with
      | Error m -> Alcotest.failf "pool reply decode failed: %s" m
      | Ok (index', v') ->
          Alcotest.(check int) "index" index index';
          Alcotest.(check Verdicts.testable) "verdict" v v')
    (Verdicts.generate 300)

let test_wire_rejects_corrupt () =
  let enc = Wire.encode_verdict ~index:5 (List.hd (Verdicts.generate 1)) in
  let flipped = Bytes.of_string enc in
  Bytes.set flipped (String.length enc / 2) '\255';
  (match Wire.decode_verdict (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt reply must not decode");
  match Wire.decode_verdict (String.sub enc 0 (String.length enc - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated reply must not decode"

(* --- batch vs serial triage ------------------------------------------ *)

(** Per-dump parallelism changes no verdict: every workload's batch row,
    analysed in a worker and shipped back over the wire, carries exactly
    the fields an in-process serial triage of the same dump produces. *)
let workload_items () =
  List.map
    (fun (w : Res_workloads.Truth.t) ->
      {
        Batch.it_name = w.Res_workloads.Truth.w_name;
        it_prog = w.w_prog;
        it_dump = Ok (Res_workloads.Truth.coredump w);
      })
    Res_workloads.Workloads.all

let check_batch_matches_serial ~jobs ~backend =
  let items = workload_items () in
  let t = Batch.run ~jobs ~backend items in
  Alcotest.(check int) "one row per workload" (List.length items)
    (List.length t.Batch.rows);
  List.iter
    (fun (it : Batch.item) ->
      let dump = Result.get_ok it.Batch.it_dump in
      let tr = Res_usecases.Triage.triage_one it.Batch.it_prog dump in
      let row =
        List.find (fun r -> r.Batch.row_name = it.Batch.it_name) t.Batch.rows
      in
      let field what = Fmt.str "%s -j %d: %s" it.Batch.it_name jobs what in
      Alcotest.(check string) (field "outcome")
        tr.Res_cache.Cache.c_outcome row.Batch.row_outcome;
      Alcotest.(check string) (field "bucket") tr.c_bucket row.Batch.row_bucket;
      Alcotest.(check string) (field "cause") tr.c_cause row.Batch.row_cause;
      Alcotest.(check int) (field "nodes") tr.c_nodes row.Batch.row_nodes;
      Alcotest.(check int) (field "pruned") tr.c_pruned row.Batch.row_pruned)
    items

let test_batch_serial_fork () =
  check_batch_matches_serial ~jobs:2 ~backend:Pool.Forked

let test_batch_serial_domains () =
  List.iter
    (fun jobs -> check_batch_matches_serial ~jobs ~backend:Pool.Domains)
    [ 1; 4 ]

(** Every other workload's dump twice more, as content-equal but
    physically distinct items: once with the dump round-tripped through
    the dump codec, once with the program reparsed from its text.  The
    batch analyzes each distinct dump once and every copy's row must
    still carry the fields its own serial triage produces. *)
let dedup_items =
  lazy
    (let originals = workload_items () in
     let copies =
       List.concat
         (List.filteri
            (fun i _ -> i mod 2 = 0)
            (List.map
               (fun (it : Batch.item) ->
                 let dump = Result.get_ok it.it_dump in
                 let io = Res_vm.Coredump_io.(of_string (to_string dump)) in
                 let prog =
                   Res_ir.Validate.check_exn
                     (Res_ir.Parser.parse (Res_ir.Prog.to_string it.it_prog))
                 in
                 [
                   { it with it_name = "dump-copy-" ^ it.it_name; it_dump = Ok io };
                   { it with it_name = it.it_name ^ "-prog-copy"; it_prog = prog };
                 ])
               originals))
     in
     let serial (it : Batch.item) =
       Res_usecases.Triage.triage_one it.it_prog (Result.get_ok it.it_dump)
     in
     let with_serial = List.map (fun it -> (it, serial it)) in
     let distinct = with_serial originals in
     let sum field = List.fold_left (fun a (_, v) -> a + field v) 0 distinct in
     ( distinct @ with_serial copies,
       sum (fun (v : Res_cache.Cache.row) -> v.c_nodes),
       sum (fun (v : Res_cache.Cache.row) -> v.c_queries),
       List.length originals ))

let check_batch_dedup ~backend =
  let items, distinct_nodes, distinct_queries, distinct =
    Lazy.force dedup_items
  in
  let n = List.length items in
  List.iter
    (fun jobs ->
      let t = Batch.run ~jobs ~backend (List.map fst items) in
      let what s = Fmt.str "-j %d: %s" jobs s in
      Alcotest.(check int) (what "one row per item") n (List.length t.Batch.rows);
      Alcotest.(check int) (what "duplicates") (n - distinct) t.Batch.duplicates;
      Alcotest.(check int)
        (what "nodes of the distinct dumps")
        distinct_nodes t.Batch.worker_nodes;
      Alcotest.(check int)
        (what "queries of the distinct dumps")
        distinct_queries t.Batch.worker_queries;
      List.iter
        (fun ((it : Batch.item), (tr : Res_cache.Cache.row)) ->
          let row =
            List.find (fun r -> r.Batch.row_name = it.Batch.it_name) t.Batch.rows
          in
          let field f = what (it.Batch.it_name ^ ": " ^ f) in
          Alcotest.(check string) (field "outcome") tr.c_outcome
            row.Batch.row_outcome;
          Alcotest.(check string) (field "bucket") tr.c_bucket row.Batch.row_bucket;
          Alcotest.(check string) (field "cause") tr.c_cause row.Batch.row_cause;
          Alcotest.(check int) (field "nodes") tr.c_nodes row.Batch.row_nodes;
          Alcotest.(check int) (field "pruned") tr.c_pruned row.Batch.row_pruned)
        items)
    [ 1; 2 ]

let test_batch_dedup_fork () = check_batch_dedup ~backend:Pool.Forked
let test_batch_dedup_domains () = check_batch_dedup ~backend:Pool.Domains

(* --- batch: fork phase ---------------------------------------------- *)

let corpus_items () =
  List.map
    (fun (r : Res_workloads.Corpus.report) ->
      {
        Batch.it_name = Fmt.str "%s-%02d" r.Res_workloads.Corpus.r_bug r.r_id;
        it_prog = r.r_prog;
        it_dump = Ok r.r_dump;
      })
    (Res_workloads.Corpus.generate ~n_per_bug:2 ())

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  l
  |> List.map (fun x -> (Random.State.bits st, x))
  |> List.sort compare |> List.map snd

let test_batch_deterministic_fork () =
  let items = corpus_items () in
  let serial = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  Alcotest.(check bool) "rows produced" true (serial.Batch.rows <> []);
  let t = Batch.run ~jobs:4 ~backend:Pool.Forked (shuffle 23 items) in
  Alcotest.(check string) "tsv identical at -j 4 (fork), shuffled input"
    serial.Batch.tsv t.Batch.tsv

let test_batch_degrades () =
  let items = corpus_items () in
  let broken =
    {
      Batch.it_name = "00-broken";
      it_prog = (List.hd items).Batch.it_prog;
      it_dump = Error "truncated file";
    }
  in
  let t = Batch.run ~jobs:2 ~backend:Pool.Forked (broken :: items) in
  match t.Batch.rows with
  | first :: rest ->
      Alcotest.(check string) "broken dump sorts first" "00-broken"
        first.Batch.row_name;
      Alcotest.(check string) "broken dump fails gracefully" "failed"
        first.Batch.row_outcome;
      Alcotest.(check string) "bucketed as dump error" "dump-error"
        first.Batch.row_bucket;
      Alcotest.(check bool) "other rows unaffected" true
        (List.for_all (fun r -> r.Batch.row_outcome <> "failed") rest)
  | [] -> Alcotest.fail "no rows"

(** A corpus directory as [res triage] loads it: every corpus dump under
    three names, plus a truncated, a bit-flipped, an empty, a garbage and
    a v1 file.  Loaded through {!Res_vm.Coredump_io.load_result}, files
    of equal bytes share one decoded dump, and the TSV at [-j 1] and
    [-j 2] is the one from decoding every file on its own. *)
let test_batch_loaded_copies () =
  let module Io = Res_vm.Coredump_io in
  let dir = Filename.temp_dir "res-corpus" "" in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let files = ref [] in
  let add name prog text =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc text);
    files := (name, prog, text) :: !files
  in
  let reports = Res_workloads.Corpus.generate ~n_per_bug:2 () in
  List.iter
    (fun (r : Res_workloads.Corpus.report) ->
      for k = 1 to 3 do
        add (Fmt.str "%s-%02d-%d" r.r_bug r.r_id k) r.r_prog (Io.to_string r.r_dump)
      done)
    reports;
  let r0 = List.hd reports in
  let text = Io.to_string r0.r_dump in
  let flipped = Bytes.of_string text in
  Bytes.set flipped (String.length text / 2)
    (Char.chr (Char.code text.[String.length text / 2] lxor 1));
  let records = String.sub text 0 (String.rindex_from text (String.length text - 2) '\n' + 1) in
  List.iter
    (fun (name, text) -> add name r0.r_prog text)
    [
      ("damaged-truncated", String.sub text 0 (String.length text / 2));
      ("damaged-flipped", Bytes.to_string flipped);
      ("damaged-empty", "");
      ("damaged-garbage", "not a coredump\n");
      ("v1", "coredump v1" ^ String.sub records 11 (String.length records - 11));
    ];
  let items load =
    List.rev_map
      (fun (name, prog, _) ->
        {
          Batch.it_name = name;
          it_prog = prog;
          it_dump =
            Result.map_error Io.dump_error_to_string (load (Filename.concat dir name));
        })
      !files
  in
  let decode path =
    Result.bind (Io.read_file path) (fun s -> Io.of_string_result s)
    |> Result.map (fun (l : Io.loaded) -> l.dump)
  in
  let loaded = items (fun path -> Result.map (fun (l : Io.loaded) -> l.dump) (Io.load_result path)) in
  let shared = Hashtbl.create 16 in
  List.iter2
    (fun (name, _, text) (it : Batch.item) ->
      match (it.it_dump, Hashtbl.find_opt shared text) with
      | Ok d, Some first ->
          Alcotest.(check bool) (name ^ ": equal bytes share one dump") true (d == first)
      | Ok d, None -> Hashtbl.add shared text d
      | Error _, _ -> ())
    (List.rev !files) loaded;
  let loadable = List.filter (fun (it : Batch.item) -> Result.is_ok it.it_dump) loaded in
  Alcotest.(check bool) "copies present" true
    (Hashtbl.length shared < List.length loadable);
  Alcotest.(check int) "the damaged files do not load" 4
    (List.length loaded - List.length loadable);
  let reference = Batch.run ~jobs:1 ~backend:Pool.Forked (items decode) in
  List.iter
    (fun jobs ->
      let t = Batch.run ~jobs ~backend:Pool.Forked loaded in
      Alcotest.(check string)
        (Fmt.str "-j %d: tsv of decoding each file" jobs)
        reference.Batch.tsv t.Batch.tsv)
    [ 1; 2 ]

(** The degraded row must be identical at every worker count: a damaged
    dump costs one row, and which row it is cannot depend on [-j]. *)
let test_batch_degrades_every_jobs () =
  let items = corpus_items () in
  let broken =
    {
      Batch.it_name = "00-broken";
      it_prog = (List.hd items).Batch.it_prog;
      it_dump = Error "truncated file";
    }
  in
  let run jobs = Batch.run ~jobs ~backend:Pool.Forked (broken :: items) in
  let t1 = run 1 in
  let t4 = run 4 in
  List.iter
    (fun (jobs, t) ->
      match t.Batch.rows with
      | first :: rest ->
          Alcotest.(check string)
            (Fmt.str "-j %d: broken dump fails gracefully" jobs)
            "failed" first.Batch.row_outcome;
          Alcotest.(check string)
            (Fmt.str "-j %d: bucketed as dump error" jobs)
            "dump-error" first.Batch.row_bucket;
          Alcotest.(check bool)
            (Fmt.str "-j %d: other rows unaffected" jobs)
            true
            (List.for_all (fun r -> r.Batch.row_outcome <> "failed") rest)
      | [] -> Alcotest.fail "no rows")
    [ (1, t1); (4, t4) ];
  Alcotest.(check string) "degraded TSV identical at -j 1 and -j 4"
    t1.Batch.tsv t4.Batch.tsv

(** A worker SIGKILLed mid-unit with retries exhausted degrades that one
    unit to a worker-lost row; the pool still respawns a worker so the
    rest of the batch completes.  It starts from no kept worker: an idle
    one left by an earlier [-j 4] batch would take the dead one's place
    without a fork. *)
let test_batch_worker_lost_row () =
  let items = corpus_items () in
  Supervisor.stop_kept ();
  let t =
    Batch.run ~jobs:2 ~backend:Pool.Forked ~kill_unit:1 ~attempts:1 items
  in
  let lost_rows =
    List.filter
      (fun r -> String.equal r.Batch.row_bucket "worker-lost")
      t.Batch.rows
  in
  Alcotest.(check int) "exactly one unit lost" 1 (List.length lost_rows);
  Alcotest.(check string) "lost unit marked failed" "failed"
    (List.hd lost_rows).Batch.row_outcome;
  Alcotest.(check int) "pool counted the loss" 1 t.Batch.lost;
  Alcotest.(check bool) "a replacement worker was respawned" true
    (t.Batch.respawns >= 1);
  Alcotest.(check int) "every item still produced a row"
    (List.length items)
    (List.length t.Batch.rows);
  Alcotest.(check bool) "one lost unit is not a failed batch" false
    (Batch.all_failed t.Batch.rows)

(** A batch where every dump is unloadable still completes — and is
    recognizable as wholly failed, which the CLI maps to a nonzero
    exit. *)
let test_batch_all_failed () =
  let items = corpus_items () in
  let break i it =
    {
      it with
      Batch.it_name = Fmt.str "b%02d" i;
      it_dump = Error "unreadable";
    }
  in
  let t =
    Batch.run ~jobs:2 ~backend:Pool.Forked (List.mapi break items)
  in
  Alcotest.(check int) "every item produced a row" (List.length items)
    (List.length t.Batch.rows);
  Alcotest.(check bool) "wholly failed batch detected" true
    (Batch.all_failed t.Batch.rows);
  let healthy = Batch.run ~jobs:2 ~backend:Pool.Forked items in
  Alcotest.(check bool) "healthy batch is not wholly failed" false
    (Batch.all_failed healthy.Batch.rows)

(** A batch whose every dump the cache answers forks no worker: the
    supervisor forks a slot only when a unit needs one. *)
let test_batch_all_cached_forks_nothing () =
  let items = corpus_items () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "res-parallel-cache-%d" (Unix.getpid ()))
  in
  let run () =
    Batch.run ~jobs:2 ~backend:Pool.Forked
      ~cache:(Res_cache.Cache.openr dir) items
  in
  let cold, warm =
    Fun.protect
      ~finally:(fun () -> Res_faultinject.Fleet.rm_rf dir)
      (fun () ->
        let cold = run () in
        (cold, run ()))
  in
  Alcotest.(check string) "warm TSV = cold TSV" cold.Batch.tsv warm.Batch.tsv;
  Alcotest.(check int) "every row from the cache" (List.length items)
    warm.Batch.cache_hits;
  Alcotest.(check int) "no worker forked" 0 warm.Batch.workers;
  Alcotest.(check int) "forked none" 0 warm.Batch.forked;
  Alcotest.(check int) "no respawn" 0 warm.Batch.respawns

(** Workers outlive their batch: two [-j 2] batches fork two workers in
    all, and the second forks none. *)
let test_batch_workers_reused () =
  let items = corpus_items () in
  Supervisor.stop_kept ();
  let t1 = Batch.run ~jobs:2 ~backend:Pool.Forked items in
  let t2 = Batch.run ~jobs:2 ~backend:Pool.Forked (shuffle 3 items) in
  Alcotest.(check int) "two workers forked in all" 2
    (t1.Batch.forked + t2.Batch.forked);
  Alcotest.(check int) "the second batch forked none" 0 t2.Batch.forked;
  Alcotest.(check int) "no respawn" 0 (t1.Batch.respawns + t2.Batch.respawns);
  Alcotest.(check string) "same tsv" t1.Batch.tsv t2.Batch.tsv

(** Warm workers serve corpus A, then corpus B under another search
    depth and a per-dump fuel budget, then A again, then A with one of
    them SIGKILLed: each TSV is the in-process [-j 1] TSV of the same
    inputs, and the kill lands on a worker kept from the earlier
    batches. *)
let test_warm_workers_a_b_a () =
  let a = corpus_items () and b = workload_items () in
  let default = Res_core.Res.default_config in
  let config_b =
    { default with search = { default.search with max_segments = 2 } }
  in
  let in_process ?config ?budget_fuel items =
    (Batch.run ?config ?budget_fuel ~jobs:1 ~backend:Pool.Domains items)
      .Batch.tsv
  in
  let tsv_a = in_process a in
  let tsv_b = in_process ~config:config_b ~budget_fuel:1 b in
  Alcotest.(check bool) "B's settings change its rows" false
    (String.equal tsv_b (in_process b));
  Supervisor.stop_kept ();
  let forked = ref 0 in
  let run ?config ?budget_fuel ?kill_unit what expected items =
    let t =
      Batch.run ?config ?budget_fuel ?kill_unit ~jobs:2 ~backend:Pool.Forked
        items
    in
    Alcotest.(check string)
      (what ^ ": tsv = in-process -j 1")
      expected t.Batch.tsv;
    forked := !forked + t.Batch.forked;
    t
  in
  ignore (run "A" tsv_a a);
  ignore (run ~config:config_b ~budget_fuel:1 "B" tsv_b b);
  ignore (run "A again" tsv_a a);
  Alcotest.(check int) "A, B, A forked two workers in all" 2 !forked;
  let warm = Supervisor.kept_pids () in
  let t = run ~kill_unit:0 "A, a worker killed" tsv_a a in
  Alcotest.(check bool) "the killed unit was retried" true
    (t.Batch.retries >= 1);
  Alcotest.(check bool) "the kill hit a kept worker" true
    (List.exists (fun p -> not (List.mem p (Supervisor.kept_pids ()))) warm)

(** The key phase encodes one dump per structural class and reuses its
    hash for the class's other members; every key must still be the one
    hashing each item's own program and dump text gives.  Per workload:
    the original, two separately decoded copies of its dump, a reparsed
    copy of its program, a dump with equal memory in a differently shaped
    map (equal bytes, so the same key), and a dump one memory cell apart
    (a different key).  The TSV is the same at [-j 1] and [-j 2]. *)
let test_batch_keys_per_class () =
  let module Io = Res_vm.Coredump_io in
  let module Memory = Res_mem.Memory in
  let config = "key-class test" in
  let reshaped = ref 0 in
  let groups =
    List.map
      (fun (w : Res_workloads.Truth.t) ->
        let d = Res_workloads.Truth.coredump w in
        let item suffix prog dump =
          { Batch.it_name = w.w_name ^ suffix; it_prog = prog; it_dump = Ok dump }
        in
        let cells = Memory.bindings d.mem in
        let rebuild order =
          List.fold_left (fun m (a, v) -> Memory.write m a v) Memory.empty order
        in
        let evens, odds = List.partition (fun (a, _) -> a mod 2 = 0) cells in
        let same =
          [
            item "" w.w_prog d;
            item "-io1" w.w_prog (Io.of_string (Io.to_string d));
            item "-io2" w.w_prog (Io.of_string (Io.to_string d));
            item "-prog" (Res_ir.Parser.parse (Res_ir.Prog.to_string w.w_prog)) d;
          ]
          @
          match
            List.find_opt
              (fun m -> compare m d.mem <> 0)
              [ rebuild (List.rev cells); rebuild (odds @ evens) ]
          with
          | Some mem ->
              incr reshaped;
              [ item "-shape" w.w_prog { d with mem } ]
          | None -> []
        in
        let apart =
          match cells with
          | (a, v) :: _ -> [ item "-apart" w.w_prog { d with mem = Memory.write d.mem a (v + 1) } ]
          | [] -> []
        in
        (same, apart))
      Res_workloads.Workloads.all
  in
  Alcotest.(check bool) "some memory reshaped" true (!reshaped > 0);
  let items = Array.of_list (List.concat_map (fun (s, a) -> s @ a) groups) in
  let keys, _ = Batch.lookup ~config items in
  let key_of = Hashtbl.create 64 in
  Array.iteri
    (fun i (it : Batch.item) ->
      let d = Result.get_ok it.it_dump in
      Alcotest.(check string) (it.it_name ^ ": key of its own bytes")
        (Res_cache.Cache.key ~prog:(Res_ir.Prog.to_string it.it_prog)
           ~dump:(Io.to_string d) ~config)
        keys.(i);
      Hashtbl.replace key_of it.it_name keys.(i))
    items;
  List.iter
    (fun (same, apart) ->
      let key (it : Batch.item) = Hashtbl.find key_of it.it_name in
      let k = key (List.hd same) in
      List.iter
        (fun it -> Alcotest.(check string) (it.Batch.it_name ^ ": class key") k (key it))
        same;
      List.iter
        (fun it ->
          Alcotest.(check bool) (it.Batch.it_name ^ ": a cell apart, another key") false
            (String.equal k (key it)))
        apart)
    groups;
  (* one encode per class: separately decoded copies share one call *)
  let calls = ref 0 in
  let hash = Batch.per_class (fun d -> incr calls; Io.to_string d) in
  let texts =
    List.map
      (fun (w : Res_workloads.Truth.t) -> Io.to_string (Res_workloads.Truth.coredump w))
      Res_workloads.Workloads.all
  in
  List.iter (fun t -> for _ = 1 to 3 do ignore (hash (Io.of_string t)) done) texts;
  Alcotest.(check int) "one call per distinct dump"
    (List.length (List.sort_uniq compare texts)) !calls;
  let items = Array.to_list items in
  let t1 = Batch.run ~jobs:1 ~backend:Pool.Forked items in
  let t2 = Batch.run ~jobs:2 ~backend:Pool.Forked (shuffle 5 items) in
  Alcotest.(check string) "tsv identical at -j 1/2" t1.Batch.tsv t2.Batch.tsv;
  Alcotest.(check int) "copies served as duplicates"
    (List.length items - List.length (List.sort_uniq compare (Array.to_list keys)))
    t1.Batch.duplicates

(* --- the supervisor, on tiny local workers ----------------------------- *)

(* A supervisor over local slots whose children answer [worker s] for
   unit [s]. *)
let local_sup ?attempts ?deadline ?on_deadline ~jobs worker =
  let slots, _ =
    Supervisor.local ~jobs ~payload:Fun.id ~worker:(fun () -> worker) ()
  in
  Supervisor.create ?attempts ?deadline ?on_deadline slots

let run_sup sup units =
  List.iter (Supervisor.add sup) units;
  let out = ref [] in
  Supervisor.run sup (fun u r -> out := (u, r) :: !out);
  List.sort compare !out

let die s =
  if s = "die" then Unix.kill (Unix.getpid ()) Sys.sigkill;
  s

let test_supervisor_lost_after_attempts () =
  List.iter
    (fun attempts ->
      let sup = local_sup ~attempts ~jobs:2 die in
      let t0 = Unix.gettimeofday () in
      let out = run_sup sup [ "a"; "die"; "b" ] in
      let elapsed = Unix.gettimeofday () -. t0 in
      let what s = Fmt.str "attempts %d: %s" attempts s in
      Alcotest.(check (list (pair string (result string string))))
        (what "siblings answered, the dying unit lost")
        [
          ("a", Ok "a");
          ("b", Ok "b");
          ( "die",
            Error
              (Fmt.str "%d attempts exhausted (last: worker died)" attempts) );
        ]
        out;
      Alcotest.(check int) (what "one retry per extra try") (attempts - 1)
        sup.Supervisor.retries;
      Alcotest.(check int) (what "one lost unit") 1 sup.Supervisor.lost;
      (* each retry waited out its gate *)
      let gates =
        List.fold_left ( +. ) 0.
          (List.init (attempts - 1) Supervisor.backoff)
      in
      Alcotest.(check bool) (what "retries were gated") true (elapsed >= gates))
    [ 1; 3 ]

let test_supervisor_backoff_one_pair () =
  let b = Supervisor.backoff in
  Alcotest.(check (float 1e-9)) "first retry at the base"
    Supervisor.backoff_base (b 0);
  Alcotest.(check (float 1e-9)) "doubles" (2. *. Supervisor.backoff_base) (b 1);
  Alcotest.(check (float 1e-9)) "capped" Supervisor.backoff_cap (b 30);
  Alcotest.(check (float 1e-9)) "stays capped" Supervisor.backoff_cap (b 1000);
  List.iter
    (fun n ->
      Alcotest.(check bool) "never above the cap" true
        (b n <= Supervisor.backoff_cap && b n <= b (n + 1)))
    (List.init 40 Fun.id);
  Alcotest.(check bool) "node health backs off on the same pair" true
    (let r =
       Res_cluster.Registry.create [ Res_serve.Client.Tcp ("127.0.0.1", 1) ]
     in
     Res_cluster.Registry.mark_failure r 0 ~now:0.;
     Res_cluster.Registry.next_gate r = Some Supervisor.backoff_base)

let hang s =
  if s = "hang" then Unix.sleepf 30.;
  if s = "slow" then Unix.sleepf 0.3;
  s

let test_supervisor_deadline_hook () =
  let deadline u = if u = "hang" then Some 0.2 else None in
  let t0 = Unix.gettimeofday () in
  (* the coordinator's hook: the attempt is retried, then lost *)
  let retried =
    local_sup ~attempts:2 ~jobs:2 ~deadline
      ~on_deadline:(fun _ _ -> Supervisor.Retry ("cut off", 0.))
      hang
  in
  Alcotest.(check (list (pair string (result string string))))
    "retry hook: the unit is tried again, then lost"
    [ ("a", Ok "a"); ("hang", Error "2 attempts exhausted (last: cut off)") ]
    (run_sup retried [ "hang"; "a" ]);
  Alcotest.(check int) "retry hook: one retry" 1 retried.Supervisor.retries;
  (* the daemon's hook: the attempt becomes a timeout row, no retry *)
  let timed_out =
    local_sup ~attempts:3 ~jobs:1 ~deadline
      ~on_deadline:(fun u _ -> Supervisor.Done (u ^ " timed out"))
      hang
  in
  Alcotest.(check (list (pair string (result string string))))
    "timeout hook: a timeout row"
    [ ("a", Ok "a"); ("hang", Ok "hang timed out") ]
    (run_sup timed_out [ "hang"; "a" ]);
  Alcotest.(check int) "timeout hook: no retry" 0 timed_out.Supervisor.retries;
  Alcotest.(check bool) "the hung children were killed, not waited for" true
    (Unix.gettimeofday () -. t0 < 10.)

(* One unit cut off at its deadline waits out a 1 s gate; its sibling's
   reply must be taken during that wait, not after it. *)
let test_supervisor_gate_keeps_siblings () =
  let cut = ref [] in
  let sup =
    local_sup ~attempts:2 ~jobs:2
      ~deadline:(fun u -> if u = "hang" then Some 0.1 else None)
      ~on_deadline:(fun _ _ ->
        cut := Unix.gettimeofday () :: !cut;
        if List.length !cut = 1 then Supervisor.Retry ("cut off", 1.0)
        else Supervisor.Done "timed out")
      hang
  in
  List.iter (Supervisor.add sup) [ "hang"; "slow" ];
  let taken = ref [] in
  let on_done u _ = taken := (u, Unix.gettimeofday ()) :: !taken in
  Fun.protect ~finally:sup.Supervisor.slots.close (fun () ->
      Supervisor.dispatch sup on_done;
      while not (Supervisor.idle sup) do
        let ready, _, _ =
          try Unix.select (Supervisor.fds sup) [] [] (Supervisor.timeout sup)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        Supervisor.handle sup ready on_done
      done);
  let first_cut = List.nth !cut (List.length !cut - 1) in
  Alcotest.(check int) "cut off twice" 2 (List.length !cut);
  Alcotest.(check bool) "the sibling's reply was taken inside the gate" true
    (List.assoc "slow" !taken < first_cut +. 1.0);
  Alcotest.(check bool) "the gated unit waited out its gate" true
    (List.assoc "hang" !taken >= first_cut +. 1.0)

(* A [jobs:1] supervisor driven the way the daemon drives it: one pass
   per [select], with units added between passes. *)
let pid_sup () =
  let slots, _ =
    Supervisor.local ~jobs:1 ~payload:Fun.id
      ~worker:(fun () s ->
        if s = "slow" then Unix.sleepf 0.2;
        string_of_int (Unix.getpid ()))
      ()
  in
  let sup = Supervisor.create slots in
  let pids = Hashtbl.create 8 in
  let on_done u r = Hashtbl.replace pids u (int_of_string (Result.get_ok r)) in
  let pass () =
    let ready, _, _ =
      try Unix.select (Supervisor.fds sup) [] [] (Supervisor.timeout sup)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Supervisor.handle sup ready on_done
  in
  let drive () =
    Supervisor.dispatch sup on_done;
    while not (Supervisor.idle sup) do
      pass ()
    done
  in
  (sup, Hashtbl.find pids, pass, drive)

(* A child answers the units added while it works; once the queue
   empties it retires, and the next unit gets a new child. *)
let test_local_slot_outlives_its_unit () =
  let sup, pid, _, drive = pid_sup () in
  Fun.protect ~finally:sup.Supervisor.slots.close @@ fun () ->
  Supervisor.add sup "slow";
  Supervisor.dispatch sup (fun _ _ -> ());
  Alcotest.(check int) "the child was forked for the first unit" 1
    (List.length (Supervisor.running sup));
  List.iter (Supervisor.add sup) [ "a"; "b" ];
  drive ();
  Alcotest.(check (list int)) "one child answered every unit"
    [ pid "slow"; pid "slow" ]
    [ pid "a"; pid "b" ];
  Supervisor.add sup "c";
  drive ();
  Alcotest.(check bool) "a unit after the retirement gets a new child" true
    (pid "c" <> pid "slow")

(* A child retired with the queue empty closes its pipes at once and is
   reaped by a later pass: sequential units leave no zombie and no
   descriptor behind. *)
let test_retired_children_reaped () =
  let sup, pid, pass, drive = pid_sup () in
  Fun.protect ~finally:sup.Supervisor.slots.close @@ fun () ->
  let units = List.init 20 string_of_int in
  let after_first = ref 0 in
  List.iteri
    (fun i u ->
      Supervisor.add sup u;
      drive ();
      if i = 0 then after_first := fd_count ())
    units;
  let pids = List.sort_uniq compare (List.map pid units) in
  Alcotest.(check int) "a child per sequential unit" 20 (List.length pids);
  let gone p = not (Sys.file_exists (Fmt.str "/proc/%d" p)) in
  let reaped () =
    pass ();
    List.for_all gone pids
  in
  Alcotest.(check bool) "every retired child reaped by a later pass" true
    (Res_faultinject.Fleet.await ~timeout:5. ~every:0. reaped);
  Alcotest.(check int) "no descriptor left behind" !after_first (fd_count ())

(* --- supervision backoff (satellite; no pool) ------------------------ *)

let test_backoff_schedule () =
  let d = Supervisor.backoff_delay ~base:0.005 ~cap:0.25 in
  Alcotest.(check (float 1e-9)) "first retry at base" 0.005 (d 0);
  Alcotest.(check (float 1e-9)) "doubles" 0.01 (d 1);
  Alcotest.(check (float 1e-9)) "keeps doubling" 0.04 (d 3);
  Alcotest.(check (float 1e-9)) "caps" 0.25 (d 9);
  Alcotest.(check (float 1e-9)) "huge death counts stay capped (no overflow)"
    0.25 (d 1000);
  Alcotest.(check (float 1e-9)) "zero base disables backoff" 0.
    (Supervisor.backoff_delay ~base:0. ~cap:0.25 5)

(* --- journal naming (satellite 1; no pool) -------------------------- *)

let test_fresh_tmp_paths_disjoint () =
  let ps =
    List.init 50 (fun _ -> Res_vm.Coredump_io.fresh_tmp_path "/tmp/x/ckpt")
  in
  Alcotest.(check int) "50 distinct temp names" 50
    (List.length (List.sort_uniq compare ps));
  List.iter
    (fun p ->
      Alcotest.(check bool) "temp name keeps the .tmp suffix" true
        (Filename.check_suffix p ".tmp"))
    ps

let test_journal_siblings_found () =
  let dir = Filename.temp_file "res_sib" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "ckpt" in
  let legacy = path ^ ".tmp" in
  let modern = Fmt.str "%s.%d.7.tmp" path (Unix.getpid ()) in
  let decoy = Filename.concat dir "other.tmp" in
  List.iter
    (fun f ->
      let oc = open_out f in
      output_string oc "x";
      close_out oc)
    [ legacy; modern; decoy ];
  let sibs = Res_vm.Coredump_io.journal_siblings path in
  Alcotest.(check (list string)) "both journal generations, no decoys"
    (List.sort compare [ legacy; modern ])
    (List.sort compare sibs);
  List.iter Sys.remove [ legacy; modern; decoy ];
  Unix.rmdir dir

(* --- pool: domains phase -------------------------------------------- *)

let test_pool_order_domains () =
  let worker () = fun s -> "r:" ^ s in
  let units = List.init 13 (fun i -> Fmt.str "u%d" i) in
  let replies, stats = Pool.run ~backend:Pool.Domains ~jobs:4 ~worker units in
  Alcotest.(check (list (option string)))
    "replies in request order"
    (List.map (fun u -> Some ("r:" ^ u)) units)
    replies;
  Alcotest.(check int) "no lost units" 0 stats.Pool.p_lost

let test_pool_worker_exception_domains () =
  let worker () = fun s -> if s = "boom" then failwith "boom" else s in
  let replies, stats =
    Pool.run ~backend:Pool.Domains ~jobs:2 ~worker [ "a"; "boom"; "b" ]
  in
  Alcotest.(check (list (option string)))
    "exception -> None"
    [ Some "a"; None; Some "b" ] replies;
  Alcotest.(check int) "counted lost" 1 stats.Pool.p_lost

let test_pool_fork_after_domains_rejected () =
  let worker () = Fun.id in
  match Pool.run ~backend:Pool.Forked ~jobs:2 ~worker [ "a" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fork after domains must be rejected, not hang"

(* --- batch: domains phase ------------------------------------------- *)

let test_batch_deterministic_domains () =
  let items = corpus_items () in
  let serial = Batch.run ~jobs:1 ~backend:Pool.Domains items in
  List.iter
    (fun (jobs, seed) ->
      let t = Batch.run ~jobs ~backend:Pool.Domains (shuffle seed items) in
      Alcotest.(check string)
        (Fmt.str "tsv identical at -j %d (domains), shuffled input" jobs)
        serial.Batch.tsv t.Batch.tsv)
    [ (2, 7); (3, 99) ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool-fork",
        [
          Alcotest.test_case "replies in request order" `Quick
            test_pool_order_fork;
          Alcotest.test_case "worker exception = lost unit" `Quick
            test_pool_worker_exception_fork;
          Alcotest.test_case "SIGKILL mid-unit reschedules" `Quick
            test_pool_kill_reschedules;
          Alcotest.test_case "SIGKILL after retirements" `Quick
            test_pool_kill_after_retirement;
          Alcotest.test_case "SIGKILL after local retirements" `Quick
            test_local_kill_after_retirement;
          Alcotest.test_case "keep:false retires the workers" `Quick
            test_pool_keep_false_retires;
          Alcotest.test_case "a worker that cannot ship gets a fork" `Quick
            test_pool_unshippable_worker;
          Alcotest.test_case "a forked child's exit spares the workers" `Quick
            test_exit_hook_spares_parent_workers;
          Alcotest.test_case "the exit hook reaps every worker" `Quick
            test_exit_hook_reaps_workers;
        ] );
      ( "wire",
        [
          Alcotest.test_case "round-trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick
            test_wire_rejects_corrupt;
        ] );
      ( "equivalence-fork",
        [
          Alcotest.test_case "batch rows = serial triage, all workloads" `Slow
            test_batch_serial_fork;
          Alcotest.test_case "duplicate dumps analyzed once" `Slow
            test_batch_dedup_fork;
        ] );
      ( "batch-fork",
        [
          Alcotest.test_case "deterministic tsv under shuffle" `Slow
            test_batch_deterministic_fork;
          Alcotest.test_case "unloadable dump degrades" `Quick
            test_batch_degrades;
          Alcotest.test_case "loaded copies share a dump, same tsv" `Slow
            test_batch_loaded_copies;
          Alcotest.test_case "degraded rows identical at -j 1/4" `Slow
            test_batch_degrades_every_jobs;
          Alcotest.test_case "worker lost past retry limit degrades" `Quick
            test_batch_worker_lost_row;
          Alcotest.test_case "wholly failed batch detected" `Quick
            test_batch_all_failed;
          Alcotest.test_case "a fully cached batch forks no worker" `Quick
            test_batch_all_cached_forks_nothing;
          Alcotest.test_case "workers outlive their batch" `Quick
            test_batch_workers_reused;
          Alcotest.test_case "warm workers serve A, B, A" `Slow
            test_warm_workers_a_b_a;
          Alcotest.test_case "one key encode per class, keys unchanged" `Slow
            test_batch_keys_per_class;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "a unit dying every attempt is lost" `Quick
            test_supervisor_lost_after_attempts;
          Alcotest.test_case "backoff is the one capped pair" `Quick
            test_supervisor_backoff_one_pair;
          Alcotest.test_case "deadline kills, the hook decides" `Quick
            test_supervisor_deadline_hook;
          Alcotest.test_case "a backoff gate blocks no sibling" `Quick
            test_supervisor_gate_keeps_siblings;
          Alcotest.test_case "a local slot outlives its unit" `Quick
            test_local_slot_outlives_its_unit;
          Alcotest.test_case "retired children reaped, no fd left" `Quick
            test_retired_children_reaped;
        ] );
      ( "journal",
        [
          Alcotest.test_case "backoff schedule doubles and caps" `Quick
            test_backoff_schedule;
          Alcotest.test_case "fresh tmp paths disjoint" `Quick
            test_fresh_tmp_paths_disjoint;
          Alcotest.test_case "siblings include legacy + pid forms" `Quick
            test_journal_siblings_found;
        ] );
      ( "pool-domains",
        [
          Alcotest.test_case "replies in request order" `Quick
            test_pool_order_domains;
          Alcotest.test_case "worker exception = lost unit" `Quick
            test_pool_worker_exception_domains;
          Alcotest.test_case "fork after domains rejected" `Quick
            test_pool_fork_after_domains_rejected;
        ] );
      ( "equivalence-domains",
        [
          Alcotest.test_case "batch rows = serial triage, all workloads" `Slow
            test_batch_serial_domains;
          Alcotest.test_case "duplicate dumps analyzed once" `Slow
            test_batch_dedup_domains;
        ] );
      ( "batch-domains",
        [
          Alcotest.test_case "deterministic tsv under shuffle" `Slow
            test_batch_deterministic_domains;
        ] );
    ]
