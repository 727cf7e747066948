(** Crash-only, content-addressed triage result cache.

    The paper's deployment setting is a WER-style corpus: millions of
    crash reports, a handful of root causes.  Re-deriving the same
    root-cause report for the same (program, dump, analysis budget)
    triple is pure waste, so every triage layer — [res triage] batches,
    the serve daemon, the cluster coordinator — consults this cache
    first and recomputes only unseen work.

    The design is crash-only, like the spool and the cluster journal:

    - {b The directory is the index.}  One sealed file per entry, named
      by the entry's content key ([<16 hex>.entry]); there is no
      manifest to corrupt or rebuild.  A fresh process scans nothing at
      boot beyond journal recovery — lookups are a single [read].
    - {b Keys are content hashes.}  {!Res_core.Sealing.hash64} of each
      of (program bytes, dump bytes, analysis-config string), combined
      in order into 64 bits and rendered as 16 hex digits — see {!key}.
      Anything that can change the result is in the key, so a stale
      entry is impossible; the 32-bit envelope hash is not used for keys
      because its birthday bound is too tight for 100k-dump corpora.
      {!key_of_hashes} takes the part hashes instead, so a batch hashes
      each program once, not once per dump.
    - {b Entries are sealed.}  The body travels inside the standard
      [rescache v2] + FNV-1a-footer envelope, written with the atomic
      journal-then-rename writer via the injectable I/O shim.  A torn
      or bit-flipped entry is {e detected}, never parsed.  v1 entries
      sit under keys of an older hash, so they are honest misses; the
      [rowv2] tag in {!row_config} marks the body codec that reads back
      every byte it escapes, and {!analysis_version} the analysis that
      computed the row.
    - {b Damage degrades to recompute.}  A entry that fails its seal is
      quarantined (moved aside to [quarantine/], or deleted if even
      that fails) and reported as a miss; the caller recomputes and
      re-stores.  A cache directory full of garbage therefore behaves
      exactly like a cold cache — same results, just slower.
    - {b Stores are best-effort.}  A store that hits a full or failing
      disk (ENOSPC, EIO, failed fsync) counts a [store_failure] and is
      forgotten; the result it was caching is already in the caller's
      hands, so nothing is lost but warmth. *)

module Sealing = Res_core.Sealing
module Ioshim = Res_core.Ioshim

let header = "rescache v2"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable store_failures : int;
  mutable quarantined : int;
}

type t = { dir : string; stats : stats }

let stats t = t.stats

let pp_stats ppf s =
  Fmt.pf ppf "hits=%d misses=%d stores=%d store_failures=%d quarantined=%d"
    s.hits s.misses s.stores s.store_failures s.quarantined

(** {!key} from the parts' {!Sealing.hash64} hashes.  A caller keying
    many dumps of one program hashes the program once; the key is the
    same as {!key} of the parts' text. *)
let key_of_hashes ~prog ~dump ~config =
  Sealing.key_of_hashes [ prog; dump; config ]

(** Derive an entry key.  [config] must render {e every} knob that can
    change the cached result (budgets, engine options, a format-version
    tag for the body codec) — the key is the only staleness defense. *)
let key ~prog ~dump ~config =
  key_of_hashes ~prog:(Sealing.hash64 prog) ~dump:(Sealing.hash64 dump)
    ~config:(Sealing.hash64 config)

let entry_path t k = Filename.concat t.dir (k ^ ".entry")
let quarantine_dir t = Filename.concat t.dir "quarantine"

(** Open a cache directory, creating it (durably) if needed and
    recovering atomic-writer journals: a sealed [.tmp] left by a killed
    writer is promoted, a torn one deleted.  Never raises — if the
    directory cannot even be created, the cache simply never hits and
    never warms, which is the contract everywhere: cache trouble means
    recompute, not failure. *)
let openr dir =
  (try Ioshim.mkdir_durable dir with Unix.Unix_error _ | Sys_error _ -> ());
  (try
     Ioshim.recover_dir dir ~valid_for:(fun _ ->
         Sealing.valid ~header)
   with Unix.Unix_error _ | Sys_error _ -> ());
  {
    dir;
    stats =
      { hits = 0; misses = 0; stores = 0; store_failures = 0; quarantined = 0 };
  }

(** How many intact-looking entries are on disk (the persistent index is
    the directory itself; this is what benches and tests report). *)
let entry_count dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
      Array.fold_left
        (fun acc e -> if Filename.check_suffix e ".entry" then acc + 1 else acc)
        0 entries

(* A damaged entry must never be served again: move it aside for the
   post-mortem, or delete it if the rename itself fails.  Either way the
   next lookup of this key is an honest miss. *)
let quarantine t path =
  t.stats.quarantined <- t.stats.quarantined + 1;
  (try Ioshim.mkdir_durable (quarantine_dir t)
   with Unix.Unix_error _ | Sys_error _ -> ());
  let dest = Filename.concat (quarantine_dir t) (Filename.basename path) in
  try Sys.rename path dest
  with Sys_error _ | Unix.Unix_error _ -> (
    try Sys.remove path with Sys_error _ | Unix.Unix_error _ -> ())

(** A validated entry's body: what follows its header line. *)
let body_of_payload payload =
  match String.index_opt payload '\n' with
  | Some i -> String.sub payload (i + 1) (String.length payload - i - 1)
  | None -> ""

(** Look up a key.  [Some body] only when the entry exists {e and} its
    seal validates; an unreadable or damaged entry is quarantined and
    reported as a miss.  Never raises. *)
let find t k =
  let path = entry_path t k in
  if not (Sys.file_exists path) then begin
    t.stats.misses <- t.stats.misses + 1;
    None
  end
  else
    let damaged () =
      quarantine t path;
      t.stats.misses <- t.stats.misses + 1;
      None
    in
    match Ioshim.read_file path with
    | Error _ -> damaged ()
    | exception (Unix.Unix_error _ | Sys_error _) -> damaged ()
    | Ok src -> (
        match Sealing.validate ~header src with
        | Error _ -> damaged ()
        | Ok payload ->
            t.stats.hits <- t.stats.hits + 1;
            Some (body_of_payload payload))

(** Store a body under a key: sealed, atomic, durable.  Best-effort — a
    disk fault counts a [store_failure] and the entry simply stays cold.
    Never raises. *)
let store t k body =
  let body =
    if body = "" || body.[String.length body - 1] <> '\n' then body ^ "\n"
    else body
  in
  let sealed = Sealing.seal (header ^ "\n" ^ body) in
  match Ioshim.write_file_atomic (entry_path t k) sealed with
  | () -> t.stats.stores <- t.stats.stores + 1
  | exception (Unix.Unix_error _ | Sys_error _) ->
      t.stats.store_failures <- t.stats.store_failures + 1

(* --- triage row codec ----------------------------------------------- *)

(** The per-dump triage verdict: what {!Res_usecases.Triage.triage_one}
    returns, what a pool worker ships back, what the daemon's [Row] reply
    carries and what every triage layer caches — exactly the fields that
    reproduce a TSV row (and the stats columns) without re-running the
    analysis. *)
type row = {
  c_outcome : string;  (** {!Res_core.Res.outcome_name}: complete/partial/failed *)
  c_timeout : bool;  (** the analysis burned its whole budget *)
  c_bucket : string;  (** root-cause signature, annotation bucket, or WER fallback *)
  c_cause : string;  (** rendered root cause; empty when none reproduced *)
  c_nodes : int;
  c_pruned : int;
  c_queries : int;  (** solver queries the analysis issued *)
}

(** The verdict for a dump no analysis answered: [failed], filed under
    [bucket] ([dump-error], [worker-lost], [analysis-error]), no work
    counted. *)
let failed_row ~bucket ~cause =
  {
    c_outcome = "failed";
    c_timeout = false;
    c_bucket = bucket;
    c_cause = cause;
    c_nodes = 0;
    c_pruned = 0;
    c_queries = 0;
  }

(** The version of the analysis whose verdicts the cache holds.  Bump it
    with any change that can alter a verdict, bucket, cause or report
    body for the same program, dump and config: entries computed by the
    old analysis then become honest misses instead of stale answers.
    Every triage key (batch, daemon, coordinator) goes through
    {!row_config}, so this one constant covers them all. *)
let analysis_version = "analysis1"

(* Bump [rowv2] if the row codec ever changes shape.  Both tags are
   folded into every key, so old entries become honest misses, not parse
   errors or stale rows. *)
let row_config ~wall ~fuel ~engine =
  Fmt.str "%s wall=%a fuel=%a rowv2 %s" engine
    Fmt.(option ~none:(any "none") float)
    wall
    Fmt.(option ~none:(any "none") int)
    fuel analysis_version

let encode_row r =
  Fmt.str "verdict %S %d %S %S %d %d %d" r.c_outcome
    (if r.c_timeout then 1 else 0)
    r.c_bucket r.c_cause r.c_nodes r.c_pruned r.c_queries

(** Decode a cached row body; [None] (an honest miss) on any mismatch —
    a sealed-but-unparsable body means a codec change, never a crash.
    [Scanf]'s [%S] reads back every escape [%S] writes ([\r], [\ddd]
    for NUL and bytes above 127, ...), so any bucket or cause text
    round-trips. *)
let decode_row body =
  match
    Scanf.sscanf body "verdict %S %d %S %S %d %d %d %!"
      (fun c_outcome timeout c_bucket c_cause c_nodes c_pruned c_queries ->
        {
          c_outcome;
          c_timeout = timeout <> 0;
          c_bucket;
          c_cause;
          c_nodes;
          c_pruned;
          c_queries;
        })
  with
  | r -> Some r
  | exception _ -> None
