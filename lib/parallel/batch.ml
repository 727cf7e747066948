(** Batch coredump triage: analyze a whole directory of dumps on a worker
    pool and cluster them by root-cause signature.

    Work division is per distinct dump — the natural unit, since dumps
    are independent and a byte-identical copy has the same verdict — and
    a unit carries its item's program and dump, and the batch's worker
    the config and budgets ({!Pool.run}).
    Output is a deterministic TSV: rows sorted by dump name (so shuffled
    input directories produce identical bytes), then cluster lines
    sorted by bucket.  A dump that cannot be loaded, or whose workers
    keep dying, degrades to a [failed] row instead of sinking the
    batch. *)

open Res_core
module Cache = Res_cache.Cache

(** One triage candidate.  [it_dump] is a [result] so unloadable dumps
    flow through as rows rather than exceptions. *)
type item = {
  it_name : string;
  it_prog : Res_ir.Prog.t;
  it_dump : (Res_vm.Coredump.t, string) result;
}

(** One TSV row: a dump's name and the rendered part of its verdict. *)
type row = {
  row_name : string;
  row_outcome : string;  (** complete | partial | failed *)
  row_bucket : string;
  row_cause : string;
  row_nodes : int;
  row_pruned : int;
}

let row_of_verdict name (v : Cache.row) =
  {
    row_name = name;
    row_outcome = v.c_outcome;
    row_bucket = v.c_bucket;
    row_cause = v.c_cause;
    row_nodes = v.c_nodes;
    row_pruned = v.c_pruned;
  }

type t = {
  rows : row list;  (** sorted by dump name *)
  clusters : (string * string list) list;  (** bucket -> member names, sorted *)
  tsv : string;
  workers : int;
  forked : int;  (** workers this run forked; 0 once they are warm *)
  retries : int;
  lost : int;
  respawns : int;  (** replacement workers forked after a death *)
  worker_nodes : int;  (** search nodes of the analyses farmed out *)
  worker_pruned : int;  (** nodes those analyses pruned *)
  worker_queries : int;  (** solver queries of the analyses farmed out *)
  cache_hits : int;  (** rows served from the result cache, not analyzed *)
  duplicates : int;
      (** rows served by an identical dump analyzed in the same batch *)
}

(* A TSV field: tabs and line breaks become spaces. *)
let add_field b s =
  String.iter
    (fun c ->
      Buffer.add_char b (match c with '\t' | '\n' | '\r' -> ' ' | c -> c))
    s

let render rows clusters =
  let b = Buffer.create 1024 in
  let tab () = Buffer.add_char b '\t' in
  List.iter
    (fun r ->
      Buffer.add_string b "dump\t";
      add_field b r.row_name;
      tab ();
      add_field b r.row_outcome;
      tab ();
      add_field b r.row_bucket;
      tab ();
      add_field b r.row_cause;
      Buffer.add_char b '\n')
    rows;
  List.iter
    (fun (bucket, names) ->
      Buffer.add_string b "cluster\t";
      add_field b bucket;
      tab ();
      Buffer.add_string b (string_of_int (List.length names));
      tab ();
      List.iteri
        (fun i name ->
          if i > 0 then Buffer.add_char b ',';
          add_field b name)
        names;
      Buffer.add_char b '\n')
    clusters;
  Buffer.contents b

(** The config part of a cache key: everything besides the program and
    dump bytes that can change a row — search limits, engine options,
    per-dump budgets and the row codec's version tag. *)
let config_key ?budget_wall ?budget_fuel (config : Res.config) =
  let s = config.search in
  Cache.row_config ~wall:budget_wall ~fuel:budget_fuel
    ~engine:
      (Fmt.str "batch %d %d %d %b %b %b %d %b %d" s.Search.max_segments
         s.max_suffixes s.max_nodes s.use_breadcrumbs s.static_prune
         s.reverse_exec config.determinism_runs config.stop_at_first_cause
         config.max_attempts)

(** [per_class f] memoizes [f] on structurally equal values: a corpus
    holds many decoded copies of few distinct dumps, and shares a handful
    of programs (often as many physically distinct copies) across them.
    A value's bounded structural hash ({!Hashtbl.hash}) picks its bucket,
    and [compare] with each class's first member there picks its class
    ([compare] answers a physically equal value at once).  Only a
    class's first member is passed to [f]; the others reuse its answer.
    [f] must give structurally equal values equal answers, and the
    values must hold no closures or floats, so that [compare] = 0 means
    structurally identical.  Equal content that compares unequal (a
    balanced map built in another order) only costs an extra call.

    The hash reads only the first few fields it meets (resbench's
    corpus-triage corpus puts ten long-exec loop counts in one bucket),
    so a bucket keeps up to 16 classes.  A value that matches none of
    them gets [f] to itself: distinct values that share a hash cost a
    bounded number of comparisons each. *)
let per_class f =
  let buckets = Hashtbl.create 64 in
  fun x ->
    let h = Hashtbl.hash x in
    let classes = Option.value (Hashtbl.find_opt buckets h) ~default:[] in
    match List.find_opt (fun (rep, _) -> compare rep x = 0) classes with
    | Some (_, v) -> v
    | None ->
        let v = f x in
        if List.compare_length_with classes 16 < 0 then
          Hashtbl.replace buckets h ((x, v) :: classes);
        v

(** Key phase: each loadable item's content key under [config] (a
    {!config_key} string) and, with [?cache], the verdict the cache holds
    for it.  Keys are derived with or without a cache: they are what
    {!run} deduplicates on.  Key parts are hashed separately, and each
    structural class of programs and of dumps is rendered and hashed
    once per batch ({!per_class}: equal values render to equal bytes, so
    every key is what hashing each item's own bytes gives); each
    distinct key is looked up once. *)
let lookup ?cache ~config items =
  let n = Array.length items in
  let keys = Array.make n "" in
  let cached = Array.make n None in
  let prog_hash =
    per_class (fun p -> Sealing.hash64 (Res_ir.Prog.to_string p))
  in
  let dump_hash =
    per_class (fun d -> Sealing.hash64 (Res_vm.Coredump_io.to_string d))
  in
  let config = Sealing.hash64 config in
  let found = Hashtbl.create 64 in
  Array.iteri
    (fun i it ->
      match it.it_dump with
      | Error _ -> ()
      | Ok d ->
          let k =
            Cache.key_of_hashes ~prog:(prog_hash it.it_prog)
              ~dump:(dump_hash d) ~config
          in
          keys.(i) <- k;
          Option.iter
            (fun c ->
              cached.(i) <-
                (match Hashtbl.find_opt found k with
                | Some v -> v
                | None ->
                    let v = Option.bind (Cache.find c k) Cache.decode_row in
                    Hashtbl.add found k v;
                    v))
            cache)
    items;
  (keys, cached)

(** Merge phase: each item's verdict ([None]: no analysis answered, so
    [worker-lost]; an unloadable item is [dump-error] whatever it holds)
    into rows in item order, their clusters, and the TSV. *)
let merge items verdicts =
  let rows =
    List.init (Array.length items) (fun i ->
        let it = items.(i) in
        row_of_verdict it.it_name
          (match (it.it_dump, verdicts.(i)) with
          | Error msg, _ -> Cache.failed_row ~bucket:"dump-error" ~cause:msg
          | Ok _, Some v -> v
          | Ok _, None -> Cache.failed_row ~bucket:"worker-lost" ~cause:""))
  in
  let clusters =
    Res_usecases.Triage.bucket ~key:(fun r -> r.row_bucket) rows
    |> List.map (fun (k, rs) -> (k, List.map (fun r -> r.row_name) rs))
  in
  (rows, clusters, render rows clusters)

(** The batch pipeline around any executor: sort [items] by name, key
    them under [config] (looking each up in [?cache]), and call
    [analyze items farm settle] with one unit per content key the cache
    could not answer: the first item with that key, in name order.
    [analyze] hands each answered unit's verdict to [settle], which
    records it and, with [?cache], stores it under the unit's key at once
    (best-effort; a timed-out verdict describes what this run managed,
    not what the inputs mean, and is never stored), so a run killed
    midway leaves every settled key for the next run to hit.  A unit
    never settled becomes a [worker-lost] row, and every later
    item with its key gets its unit's verdict, [worker-lost] and
    timed-out rows included.  Then the merge phase.  Returns [analyze]'s
    result, the rows, clusters and TSV, and how many rows the cache and
    the duplicates served. *)
let pipeline ?cache ~config items analyze =
  let items =
    List.sort (fun a b -> compare a.it_name b.it_name) items |> Array.of_list
  in
  let n = Array.length items in
  let keys, cached = lookup ?cache ~config items in
  (* [rep.(i)]: the first item with [i]'s key *)
  let rep = Array.init n Fun.id in
  let first = Hashtbl.create 64 in
  Array.iteri
    (fun i k ->
      if k <> "" then
        match Hashtbl.find_opt first k with
        | Some j -> rep.(i) <- j
        | None -> Hashtbl.add first k i)
    keys;
  let farm =
    (* one loadable dump per key the cache could not answer *)
    List.filter
      (fun i -> keys.(i) <> "" && rep.(i) = i && cached.(i) = None)
      (List.init n Fun.id)
  in
  let verdicts = Array.copy cached in
  let settle i (v : Cache.row) =
    verdicts.(i) <- Some v;
    match cache with
    | Some c when not v.c_timeout -> Cache.store c keys.(i) (Cache.encode_row v)
    | _ -> ()
  in
  let a = analyze items farm settle in
  let duplicates = ref 0 in
  Array.iteri
    (fun i j ->
      if j <> i && cached.(i) = None then begin
        verdicts.(i) <- verdicts.(j);
        incr duplicates
      end)
    rep;
  let rows, clusters, tsv = merge items verdicts in
  let cache_hits =
    Array.fold_left (fun a c -> if c <> None then a + 1 else a) 0 cached
  in
  (a, rows, clusters, tsv, cache_hits, !duplicates)

(** [run items] triages every item on [jobs] workers.  [budget_wall] /
    [budget_fuel] bound each {e dump}'s analysis separately (a budget
    cannot be shared across processes, and per-dump bounds are what batch
    triage wants: one pathological dump degrades to [partial] without
    starving its neighbours).  With [?cache], each loadable dump is
    looked up in the content-addressed result cache first and only
    misses are farmed to the pool; fresh verdicts that finished within
    their budget are stored back best-effort.  Cache hits reproduce the
    exact row an analysis would have produced, so the TSV is
    byte-identical warm or cold.  Each distinct content key is analyzed
    once ({!pipeline}).  Forked workers stay for the process's next
    batch ({!Pool.run}). *)
let run ?(config = Res.default_config) ?budget_wall ?budget_fuel ?(jobs = 1)
    ?backend ?kill_unit ?attempts ?cache items =
  let (pstats, nodes, pruned, queries), rows, clusters, tsv, cache_hits,
      duplicates =
    pipeline ?cache ~config:(config_key ?budget_wall ?budget_fuel config)
      items (fun items farm settle ->
        let worker (prog, dump) =
          let budget =
            match (budget_wall, budget_fuel) with
            | None, None -> None
            | w, f -> Some (Budget.create ?wall_seconds:w ?fuel:f ())
          in
          Wire.encode_verdict
            (Res_usecases.Triage.triage_one ~config ?budget prog dump)
        in
        let unit i =
          match items.(i).it_dump with
          | Ok d -> (items.(i).it_prog, d)
          | Error _ -> assert false
        in
        let replies, pstats =
          Pool.run ?backend ?kill_unit ?attempts ~jobs ~worker
            (List.map unit farm)
        in
        (* the replies come in [farm]'s order *)
        let nodes = ref 0 and pruned = ref 0 and queries = ref 0 in
        List.iter2
          (fun i reply ->
            match Option.map Wire.decode_verdict reply with
            | Some (Ok v) ->
                settle i v;
                nodes := !nodes + v.Cache.c_nodes;
                pruned := !pruned + v.Cache.c_pruned;
                queries := !queries + v.Cache.c_queries
            | _ -> ())
          farm replies;
        (pstats, !nodes, !pruned, !queries))
  in
  {
    rows;
    clusters;
    tsv;
    workers = pstats.Pool.p_workers;
    forked = pstats.Pool.p_forked;
    retries = pstats.Pool.p_retries;
    lost = pstats.Pool.p_lost;
    respawns = pstats.Pool.p_respawns;
    worker_nodes = nodes;
    worker_pruned = pruned;
    worker_queries = queries;
    cache_hits;
    duplicates;
  }

(** Every dump degraded to a [failed] row — the signal an orchestrator
    gates on (bad program, poisoned dump directory, a worker pool that
    cannot keep a child alive, or a fleet with every node down). *)
let all_failed rows =
  rows <> [] && List.for_all (fun r -> String.equal r.row_outcome "failed") rows
