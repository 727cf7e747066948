(** corpus-triage and retriage: a fleet's crash corpus, read from dump
    files on disk and triaged to the batch TSV.

    corpus-triage is the first triage of a corpus, with no cache, on two
    forked workers ([res triage --dir D -j 2]).  retriage re-triages a
    corpus against a result cache filled during set-up, on one thread; a
    fixed share of its dumps are content-new, so they miss, are analyzed,
    and are stored.  Each timed retriage pass deletes the entries it
    stored afterwards (untimed), so every pass misses on the same dumps. *)

open Res_core
module Batch = Res_parallel.Batch
module Cache = Res_cache.Cache

(* 13 families x 230 = 2 990 dumps; retriage adds 20 content-new ones. *)
let per_family = 230
let retriage_new = 20

(* Each cycle of the timed loop runs one triage pass, [analysis_batches]
   batches of in-process analyses, and one batch of debugger walks.  The
   triage median needs ten samples on each side: twenty cycles. *)
let min_cycles = 20
let analysis_batches = 5

(* State queries per debugger sample: about 0.05-0.1 s of walking. *)
let queries_per_sample = 20_000

(** A corpus of dump files and how to triage it. *)
type corpus = {
  entries : Gen.entry list;  (** sorted by name, as batch triage sorts *)
  dumps_dir : string;
  config : Res.config;
  jobs : int;
  cache_dir : string option;
  known_entries : string list;  (** cache entries after the fill *)
  expected_hits : int;
  reference : Batch.t;  (** in process, one thread, no cache *)
}

(** Write the dump files as a fleet's crash collector would hand them
    over: each distinct dump stored once, written plainly (not with the
    fsynced writer [res] uses), and its duplicates hard links to it.  On
    this kind of disk the time to create an inode swings twentyfold from
    minute to minute; a link does not. *)
let save dir entries =
  let first = Hashtbl.create 256 in
  List.iter
    (fun (e : Gen.entry) ->
      let path = Filename.concat dir e.name in
      let text = Res_vm.Coredump_io.to_string e.dump in
      match Hashtbl.find_opt first text with
      | Some original -> Unix.link original path
      | None ->
          Hashtbl.replace first text path;
          Out_channel.with_open_bin path (fun oc -> output_string oc text))
    entries

let load ~dumps_dir entries =
  List.mapi
    (fun i (e : Gen.entry) ->
      {
        Batch.it_name = e.name;
        it_prog = e.prog;
        it_dump =
          Span.run ~dump:i "coredump_io.decode" (fun () ->
              match
                Res_vm.Coredump_io.load_result (Filename.concat dumps_dir e.name)
              with
              | Ok l -> Ok l.Res_vm.Coredump_io.dump
              | Error err -> Error (Res_vm.Coredump_io.dump_error_to_string err));
      })
    entries

(** One user-visible pass: open the cache, read every dump file, triage. *)
let pass ~config ~jobs ?cache_dir ~dumps_dir entries =
  let cache = Option.map Cache.openr cache_dir in
  let items = load ~dumps_dir entries in
  let backend = if jobs > 1 then Res_parallel.Pool.Forked else Domains in
  ( items,
    Span.run "batch.run" (fun () ->
        Batch.run ~config ~jobs ~backend ?cache items) )

let run_pass c =
  pass ~config:c.config ~jobs:c.jobs ?cache_dir:c.cache_dir
    ~dumps_dir:c.dumps_dir c.entries

let cache_entries dir =
  List.filter
    (fun f -> Filename.check_suffix f ".entry")
    (Array.to_list (Sys.readdir dir))

let corpus ?(config = Res.default_config) ?(jobs = 1) ?cache_dir
    ?(expected_hits = 0) ~dir entries =
  let entries =
    List.sort (fun (a : Gen.entry) b -> compare a.name b.name) entries
  in
  {
    entries;
    dumps_dir = dir;
    config;
    jobs;
    cache_dir;
    known_entries = Option.fold ~none:[] ~some:cache_entries cache_dir;
    expected_hits;
    reference = snd (pass ~config ~jobs:1 ~dumps_dir:dir entries);
  }

(** Delete the cache entries a pass stored, so the next pass starts from
    the filled cache again. *)
let forget_new c =
  Option.iter
    (fun dir ->
      List.iter
        (fun f ->
          if not (List.mem f c.known_entries) then
            Sys.remove (Filename.concat dir f))
        (cache_entries dir))
    c.cache_dir

(** Rows of a batch that fail: not the reference row (so not complete
    where the reference is), lost with a worker, or in a bucket that
    disagrees with the bug the generator planted.  A TSV that differs
    from the reference with every row equal counts one failure, and so
    does a hit count other than the expected one. *)
let failures c (t : Batch.t) =
  let bug = Hashtbl.create 4096 in
  List.iter (fun (e : Gen.entry) -> Hashtbl.replace bug e.name e.bug) c.entries;
  let bad_row (r : Batch.row) =
    String.equal r.row_bucket "worker-lost"
    || not (Gen.agrees (Hashtbl.find bug r.row_name) r.row_bucket)
  in
  let bad =
    if List.length t.rows <> List.length c.reference.rows then
      List.length c.reference.rows
    else
      List.fold_left2
        (fun acc (r : Batch.row) ref_row ->
          if r <> ref_row || bad_row r then acc + 1 else acc)
        0 t.rows c.reference.rows
  in
  let tsv_off = bad = 0 && not (String.equal t.tsv c.reference.tsv) in
  bad + Bool.to_int tsv_off + Bool.to_int (t.cache_hits <> c.expected_hits)

type prepared = {
  corpus : corpus;
  batches : (Dev.input * string) list array;
      (** in-process analysis batches: input and reference report *)
  sessions : unit -> Debugger.t list;  (** open the walked suffixes *)
  setup_s : float;
  notes : string list;
}

(** A batch of in-process analyses over [entries], [rounds] times over,
    with each input's reference report. *)
let analysis_batch ~dumps_dir ~rounds entries =
  let one =
    List.map
      (fun (e : Gen.entry) ->
        let inp = Dev.input_of_file e.prog (Filename.concat dumps_dir e.name) in
        (inp, (Dev.analyze ~config:Res.default_config 0 inp).report))
      entries
  in
  List.concat (List.init rounds (fun _ -> one))

(** The [b]th run of [n] dumps of every family in [pool], so that every
    batch has the same mix. *)
let stratified ~n b pool =
  let families =
    List.sort_uniq compare (List.map (fun (e : Gen.entry) -> e.family) pool)
  in
  List.concat_map
    (fun f ->
      List.filteri
        (fun i _ -> i / n = b)
        (List.filter (fun (e : Gen.entry) -> e.family = f) pool))
    families

(** Debugger sessions over the best suffix of each dump. *)
let open_sessions ~dumps_dir entries () =
  List.mapi
    (fun i (e : Gen.entry) ->
      let inp = Dev.input_of_file e.prog (Filename.concat dumps_dir e.name) in
      match Dev.session ~dump_id:i (Dev.analyze ~config:Res.default_config i inp) with
      | Some s -> s
      | None -> failwith ("no reproduced suffix to debug in " ^ e.name))
    entries

let queries_per_walk sessions =
  List.fold_left (fun a s -> a + Debugger.total_steps s + 1) 0 sessions

let prepare_corpus ~reps ~seed ~dir =
  let (entries, dir), setup_s =
    Run_result.setup ~reps ~dir (fun dir ->
        let entries =
          Gen.corpus (Random.State.make [| seed |]) ~per_family
        in
        save dir entries;
        entries)
  in
  {
    corpus = corpus ~jobs:2 ~dir entries;
    batches =
      Array.init 2 (fun b ->
          analysis_batch ~dumps_dir:dir ~rounds:1 (stratified ~n:10 b entries));
    sessions = open_sessions ~dumps_dir:dir (stratified ~n:1 0 entries);
    setup_s;
    notes = [ Printf.sprintf "dumps=%d jobs=2 cache=none" (List.length entries) ];
  }

let prepare_retriage ~reps ~seed ~dir =
  let dumps_dir dir = Filename.concat dir "dumps"
  and cache_dir dir = Filename.concat dir "cache" in
  let ((old, fresh), dir), setup_s =
    Run_result.setup ~reps ~dir (fun dir ->
        let dumps_dir = dumps_dir dir and cache_dir = cache_dir dir in
        Run_result.mkdir_p dumps_dir;
        let rng = Random.State.make [| seed |] in
        let old = Gen.corpus rng ~per_family in
        let fresh = Gen.fresh_long_execs rng retriage_new in
        save dumps_dir (old @ fresh);
        (* The fleet triaged each distinct crash once. *)
        let seen = Hashtbl.create 256 in
        let distinct =
          List.filter
            (fun (e : Gen.entry) ->
              let k = (e.family, Res_vm.Coredump_io.to_string e.dump) in
              (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true))
            old
        in
        ignore
          (Batch.run ~jobs:1 ~backend:Domains ~cache:(Cache.openr cache_dir)
             (List.map
                (fun (e : Gen.entry) ->
                  { Batch.it_name = e.name; it_prog = e.prog; it_dump = Ok e.dump })
                distinct));
        (old, fresh))
  in
  let dumps_dir = dumps_dir dir and cache_dir = cache_dir dir in
  {
    corpus =
      corpus ~cache_dir ~expected_hits:(List.length old) ~dir:dumps_dir
        (old @ fresh);
    batches = [| analysis_batch ~dumps_dir ~rounds:4 fresh |];
    sessions =
      open_sessions ~dumps_dir (List.filteri (fun i _ -> i < 10) fresh);
    setup_s;
    notes =
      [
        Printf.sprintf "dumps=%d content_new=%d jobs=1 cache=filled"
          (List.length old + List.length fresh)
          (List.length fresh);
      ];
  }

(** A batch of in-process analyses; the per-dump figure and the number
    of reports that differ from the reference. *)
let analysis_sample b =
  let outs, dt =
    Clock.time (fun () ->
        List.mapi (fun i (inp, _) -> Dev.analyze ~config:Res.default_config i inp) b)
  in
  ( dt /. float_of_int (List.length b),
    List.fold_left2
      (fun acc (a : Dev.analyzed) (_, reference) ->
        if String.equal a.report reference && Res.outcome_name a.outcome = "complete"
        then acc
        else acc + 1)
      0 outs b )

let run ~seconds p =
  let c = p.corpus in
  let n = float_of_int (List.length c.entries) in
  let sessions = p.sessions () in
  let walks = max 1 (queries_per_sample / queries_per_walk sessions) in
  let rates = ref [] and analyze_s = ref [] and step_us = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let count ops bad =
    attempted := !attempted + ops;
    failed := !failed + bad
  in
  (* The reference itself must agree with the planted bugs. *)
  count (List.length c.entries)
    (failures c { c.reference with cache_hits = c.expected_hits });
  Run_result.loop ~seconds ~min:min_cycles (fun i ->
      let (_, t), dt = Clock.time (fun () -> run_pass c) in
      rates := (n /. dt) :: !rates;
      count (List.length c.entries) (failures c t);
      forget_new c;
      (* The pass leaves major-GC work behind; do not bill it to the
         analyses. *)
      Gc.compact ();
      for j = 0 to analysis_batches - 1 do
        let b = p.batches.(((i * analysis_batches) + j) mod Array.length p.batches) in
        let per_dump, bad = analysis_sample b in
        analyze_s := per_dump :: !analyze_s;
        count (List.length b) bad
      done;
      Gc.compact ();
      let us, ok = Dev.walk_sample ~times:walks sessions in
      step_us := us :: !step_us;
      count 1 (Bool.to_int (not ok)));
  let metrics, scale =
    Run_result.end_to_end ~setup_s:p.setup_s ~analyze_s:!analyze_s
      ~step_us:!step_us ~rates:!rates
  in
  {
    Run_result.correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    metrics;
    notes = p.notes @ [ scale ];
  }

(* The key [Batch.run] derives for a dump, rebuilt from the same public
   parts, so the layered pass reads and writes the entries the batch
   does. *)
let config_key =
  let c = Res.default_config in
  let s = c.search in
  Cache.row_config ~wall:None ~fuel:None
    ~engine:
      (Fmt.str "batch %d %d %d %b %b %b %d %b %d" s.max_segments s.max_suffixes
         s.max_nodes s.use_breadcrumbs s.static_prune s.reverse_exec
         c.determinism_runs c.stop_at_first_cause c.max_attempts)

(** The batch's work, layer by layer and in process: cache key and lookup
    for every dump (retriage), the layered analysis of every dump the
    cache could not answer, the stores, then the TSV. *)
let layered c (items : Batch.item list) =
  let cache = Option.map Cache.openr c.cache_dir in
  let prog_text =
    let last = ref None in
    fun prog ->
      match !last with
      | Some (p', s) when p' == prog -> s
      | _ ->
          let s = Res_ir.Prog.to_string prog in
          last := Some (prog, s);
          s
  in
  let looked_up =
    List.mapi
      (fun i (it : Batch.item) ->
        let dump = Result.get_ok it.it_dump in
        match cache with
        | None -> (i, it, dump, "", None)
        | Some c ->
            let k =
              Span.run ~dump:i "cache.key" (fun () ->
                  Cache.key ~prog:(prog_text it.it_prog)
                    ~dump:(Res_vm.Coredump_io.to_string dump) ~config:config_key)
            in
            let hit =
              Span.run ~dump:i "cache.find" (fun () ->
                  Option.bind (Cache.find c k) Cache.decode_row)
            in
            (i, it, dump, k, hit))
      items
  in
  let rows =
    List.map
      (fun (i, (it : Batch.item), dump, k, hit) ->
        match hit with
        | Some (r : Cache.row) ->
            ( {
                Batch.row_name = it.it_name;
                row_outcome = r.c_outcome;
                row_bucket = r.c_bucket;
                row_cause = r.c_cause;
                row_nodes = r.c_nodes;
                row_pruned = r.c_pruned;
              },
              None )
        | None ->
            let q0 = Res_solver.Solver.queries () in
            let row =
              Span.run ~dump:i "fleet.analysis" (fun () ->
                  let ctx =
                    Span.run ~dump:i "backstep.make_ctx" (fun () ->
                        Backstep.make_ctx it.it_prog)
                  in
                  Pipeline.row it.it_name dump
                    (Pipeline.analyze ~dump_id:i ctx dump))
            in
            (row, Some (i, k, row, Res_solver.Solver.queries () - q0)))
      looked_up
  in
  Option.iter
    (fun c ->
      List.iter
        (function
          | _, Some (i, k, (row : Batch.row), queries) ->
              Span.run ~dump:i "cache.store" (fun () ->
                  Cache.store c k
                    (Cache.encode_row
                       {
                         c_outcome = row.row_outcome;
                         c_timeout = false;
                         c_bucket = row.row_bucket;
                         c_cause = row.row_cause;
                         c_nodes = row.row_nodes;
                         c_pruned = row.row_pruned;
                         c_queries = queries;
                       }))
          | _, None -> ())
        rows)
    cache;
  let rows = List.map fst rows in
  (rows, Span.run "report.render" (fun () -> Pipeline.tsv rows), cache)

(** The traced run: one untraced pass, the same pass traced, the
    in-process [Triage.triage_one] of every dump (corpus-triage only), and
    the layered pass, which must reproduce the batch's rows, TSV and cache
    hits. *)
let trace p =
  let c = p.corpus in
  let untraced () =
    let _, dt = Clock.time (fun () -> run_pass c) in
    forget_new c;
    dt
  in
  (* The first pass after set-up warms the page cache: leave it out. *)
  ignore (untraced ());
  let untraced_s = untraced () in
  let batch, traced_s, (rows, tsv, cache), queries, (walked, walk_ok) =
    Run_result.traced (fun () ->
        let (items, batch), traced_s = Clock.time (fun () -> run_pass c) in
        forget_new c;
        if c.cache_dir = None then
          List.iteri
            (fun i (it : Batch.item) ->
              Span.run ~dump:i "triage.triage_one" (fun () ->
                  ignore
                    (Res_usecases.Triage.triage_one it.it_prog
                       (Result.get_ok it.it_dump))))
            items;
        let q0 = Res_solver.Solver.queries () in
        let out = layered c items in
        let queries = Res_solver.Solver.queries () - q0 in
        forget_new c;
        let walk = Dev.walks ~times:1 (p.sessions ()) in
        (batch, traced_s, out, queries, walk))
  in
  if rows <> batch.rows then Run_result.diverged "layered rows differ from the batch's";
  if not (String.equal tsv batch.tsv) then
    Run_result.diverged "layered TSV differs from the batch's";
  let stats = Option.map Cache.stats cache in
  (match stats with
  | Some s when s.hits <> batch.cache_hits ->
      Run_result.diverged "layered pass hit %d entries, the batch %d" s.hits
        batch.cache_hits
  | _ -> ());
  let self = Span.self_seconds () in
  let stat f = match stats with Some s -> float_of_int (f s) | None -> 0. in
  let triage_s = self "triage.triage_one" and batch_s = self "batch.run" in
  let failed = failures c batch + Bool.to_int (not walk_ok) in
  {
    Run_result.correct = failed = 0;
    attempted = List.length c.entries + 1;
    failed;
    metrics =
      Run_result.layer_metrics ~solver_queries:queries ~state_queries:walked
      @ [
        ("batch.run_s", batch_s);
        ("triage.s", triage_s);
        ( "pool.efficiency",
          if triage_s > 0. then triage_s /. (float_of_int c.jobs *. batch_s)
          else 0. );
        ("pool.workers", float_of_int batch.workers);
        ("pool.retries", float_of_int batch.retries);
        ("pool.respawns", float_of_int batch.respawns);
        ("pool.lost", float_of_int batch.lost);
        ("cache.key_s", self "cache.key");
        ("cache.find_s", self "cache.find");
        ("cache.store_s", self "cache.store");
        ("cache.hits", stat (fun s -> s.hits));
        ("cache.misses", stat (fun s -> s.misses));
        ( "cache.hit_ratio",
          if stat (fun s -> s.hits + s.misses) > 0. then
            stat (fun s -> s.hits) /. stat (fun s -> s.hits + s.misses)
          else 0. );
        ("cache.quarantined", stat (fun s -> s.quarantined));
        ("cache.stores", stat (fun s -> s.stores));
        ("cache.store_failures", stat (fun s -> s.store_failures));
        ("trace.overhead_frac", (traced_s /. untraced_s) -. 1.);
      ];
    notes = p.notes;
  }
