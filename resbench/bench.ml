(** The benchmark's workloads and the metrics they print. *)

(* Every metric a run prints, with its unit: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("analyze_s_p50", "s");
    ("analyze_s_p90", "s");
    ("debug_step_us_p50", "us");
    ("triage_dumps_per_s", "1/s");
  ]

let per_layer =
  [
    ("search.s", "s");
    ("search.nodes", "count");
    ("search.candidates", "count");
    ("search.pruned", "count");
    ("search.reversed", "count");
    ("search.slice_skipped", "count");
    ("search.suffixes", "count");
    ("search.nodes_d25", "count");
    ("search.nodes_d50", "count");
    ("search.nodes_d100", "count");
    ("solver.queries", "count");
    ("replay.s", "s");
    ("replay.runs", "count");
    ("rootcause.s", "s");
    ("coredump_io.decode_s", "s");
    ("backstep.make_ctx_s", "s");
    ("report.render_s", "s");
    ("batch.run_s", "s");
    ("triage.s", "s");
    ("pool.efficiency", "ratio");
    ("pool.workers", "count");
    ("pool.retries", "count");
    ("pool.respawns", "count");
    ("pool.lost", "count");
    ("cache.key_s", "s");
    ("cache.find_s", "s");
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.hit_ratio", "ratio");
    ("cache.quarantined", "count");
    ("cache.store_s", "s");
    ("cache.stores", "count");
    ("cache.store_failures", "count");
    ("debugger.open_s", "s");
    ("debugger.state_at_us", "us");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
  ]

let setup_reps = 3

(** Run a workload: [seconds] of measurement, or the traced pass. *)
let workload name ~seed ~seconds ~trace ~dir =
  let reps = if trace then 1 else setup_reps in
  match name with
  | "deep-chain" ->
      let p = Deep_chain.prepare ~reps ~seed ~dir in
      if trace then Deep_chain.trace p else Deep_chain.run ~seconds p
  | "corpus-triage" ->
      let p = Fleet.prepare_corpus ~reps ~seed ~dir in
      if trace then Fleet.trace p else Fleet.run ~seconds p
  | "retriage" ->
      let p = Fleet.prepare_retriage ~reps ~seed ~dir in
      if trace then Fleet.trace p else Fleet.run ~seconds p
  | _ -> invalid_arg ("unknown workload " ^ name)

