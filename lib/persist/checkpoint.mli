(** Crash-safe persistence of in-flight analyses.

    A checkpoint is a self-contained image of a running {!Res_core.Res}
    analysis — program, coredump, configuration, and the
    {!Res_core.Res.ckpt_state} (deepening position, suffixes of completed
    depths, the suspended search of the depth in progress, counters, fuel,
    fresh-symbol counter).  A resumed process needs nothing but the
    checkpoint file to continue the analysis and produce bit-identical
    reports.

    The format reuses the coredump format's hardening: versioned header,
    FNV-1a [end <lines> <checksum>] footer, atomic temp-file + rename
    writes, and {!Res_vm.Coredump_io.dump_error}-classified loading.
    [of_string (to_string c)] round-trips exactly (property-tested). *)

(** Everything a dead process's successor needs. *)
type t = {
  config : Res_core.Res.config;
  prog : Res_ir.Prog.t;
  dump : Res_vm.Coredump.t;
  state : Res_core.Res.ckpt_state;
}

(** The format's versioned header line. *)
val header : string

(** Serialize to the sealed textual format. *)
val to_string : t -> string

(** Parse and validate, classifying damage (truncation, bit corruption,
    bad header) instead of raising. *)
val of_string : string -> (t, Res_vm.Coredump_io.dump_error) result

(** Write a checkpoint atomically (temp file + rename): a crash mid-write
    never leaves a torn file at [path]. *)
val save : string -> t -> unit

(** Recover the atomic writer's journals at [path.<pid>.<n>.tmp] (and the
    legacy [path ^ ".tmp"]), if any: a valid sibling is a completed write
    that died before its rename — promote it over [path]; an invalid
    sibling is a torn write — delete it ({!Res_core.Ioshim.recover_journal_with}
    with the checkpoint seal).  Idempotent; called automatically by {!load}. *)
val recover_journal : string -> unit

(** Load a checkpoint, after {!recover_journal}. *)
val load : string -> (t, Res_vm.Coredump_io.dump_error) result

(** A {!Res_core.Res.checkpointer} persisting to [path] every [every]
    ticks (frontier pops: visits, evals and seals; default 25).  Write
    failures surface as [Error] and leave the previous good checkpoint in
    place. *)
val checkpointer :
  ?every:int ->
  path:string ->
  config:Res_core.Res.config ->
  prog:Res_ir.Prog.t ->
  dump:Res_vm.Coredump.t ->
  unit ->
  Res_core.Res.checkpointer
