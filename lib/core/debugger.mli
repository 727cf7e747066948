(** Post-mortem debugging aids on top of a synthesized suffix (paper §3.3).

    A session wraps one verified suffix.  Because replay is deterministic,
    any point in the suffix can be reconstructed exactly by re-running the
    replay for a bounded number of steps — reverse-stepping is just
    re-running one step less, with no recording anywhere.  The hypothesis
    helpers answer the paper's example queries.

    Positions: every query below takes or returns a timeline position
    [p ∈ [0, total_steps]], meaning "the first [p] instructions have
    completed" — the unit {!state_at} takes.  The instruction a position
    names is the one about to execute there; [p = total_steps] is the
    crash (the faulting instruction never completes).  A position is not
    an index into {!trace}: a blocked scheduling attempt completes a step
    but emits no event, and a final ret emits two; each event carries its
    position in [Event.step]. *)

type t

(** Open a debugging session for a suffix: one replay verifies it and
    keeps the snapshot index state queries use.  [Error] if the suffix
    does not reproduce the coredump (nothing trustworthy to debug).
    [snapshot_every] (default 64) is the snapshot-index interval; 0
    disables the index, so every query replays from step 0, and negative
    values are treated as 0. *)
val start :
  ?snapshot_every:int ->
  Backstep.ctx ->
  Suffix.t ->
  Res_vm.Coredump.t ->
  (t, string) result

(** The first of the suffixes, in the caller's order, that opens a
    session; [None] when none reproduces the coredump. *)
val start_first :
  ?snapshot_every:int ->
  Backstep.ctx ->
  Suffix.t list ->
  Res_vm.Coredump.t ->
  (Suffix.t * t) option

(** The suffix's instruction trace, oldest first. *)
val trace : t -> Res_vm.Event.t list

(** The crash the suffix runs into. *)
val crash : t -> Res_vm.Crash.t

(** The program's memory layout, for naming addresses. *)
val layout : t -> Res_mem.Layout.t

(** The snapshot-index interval in use (0 = no index). *)
val snapshot_every : t -> int

(** Total completed instruction steps in the suffix, the timeline bound
    for {!state_at}. *)
val total_steps : t -> int

(** Reconstruct the exact machine state at position [p], via the snapshot
    index with interval [k]: a backward query restores the nearest
    snapshot at or below [p] and re-executes forward, keeping the image of
    each step it replays in a window of at most [k] images, so later
    backward queries into that window restore an image and re-execute
    nothing.  Ascending and descending sweeps cost amortized O(1) per
    position, a random query O(k).  The returned state is the session's
    shared replay cursor: it is valid until the next state query on [t];
    extract what you need before querying again. *)
val state_at : t -> int -> Res_vm.Exec.state

(** Replay-from-zero state reconstruction, the reference the index is
    benchmarked and cross-checked against: [Exec.run_state] from step 0
    under the suffix's scripts, taking and restoring no image.  It shares
    only the VM's scheduling step with the index, so a fault in capturing,
    restoring or seeking shows as a difference.  O(steps) per query;
    returns a fresh state. *)
val state_at_linear : t -> int -> Res_vm.Exec.state

(** Replay work done so far. *)
type stats = {
  snapshot_restores : int;  (** snapshots restored by state queries *)
  window_restores : int;
      (** backward-window images restored by state queries; these neither
          restore a snapshot nor re-execute an instruction *)
  replayed : int;  (** instructions re-executed by state queries *)
  probes : int;  (** state evaluations made by transition searches *)
}

val stats : t -> stats

(** Memory word [addr] at position [p]. *)
val mem_at : t -> int -> int -> int

(** The events the instruction at position [p] emits, oldest first: empty
    for a blocked scheduling attempt and at the crash position. *)
val events_at : t -> int -> Res_vm.Event.t list

(** The program counters executed at position [p], one per event, or the
    faulting pc at the crash position.  A breakpoint at [pc] stops at [p]
    exactly when [pc] is among them. *)
val pcs_at : t -> int -> Res_ir.Pc.t list

(** First position at which a breakpoint on the pc stops.  Answers "what
    was the program state when the program was executing at X?" (combine
    with {!state_at}). *)
val break_at : t -> Res_ir.Pc.t -> int option

(** Every position at which a breakpoint on the pc stops, oldest first —
    the full hit list of a breakpoint. *)
val break_all : t -> Res_ir.Pc.t -> int list

(** All positions at which the thread executes an instruction. *)
val steps_of_thread : t -> int -> int list

(** Positions whose instruction writes the memory word, oldest first — a
    location's write history within the suffix. *)
val writes_to : t -> int -> int list

(** Hypothesis (paper §3.3): "was thread T preempted before updating shared
    memory location M?" — [Some true] when another thread executed between
    T's previous access to M and T's write to M; [None] when T never
    writes M in this suffix. *)
val preempted_before_update : t -> tid:int -> addr:int -> bool option

(** What a transition search found. *)
type transition = {
  tr_pos : int;  (** first position whose value differs from position 0 *)
  tr_before : int;  (** value at [tr_pos - 1] (= value at position 0) *)
  tr_after : int;  (** value at [tr_pos] *)
  tr_probes : int;  (** state evaluations the search made *)
}

(** Binary search the timeline for a position where the evaluation flips
    (FReD-style transition watchpoint): [None] when the endpoints agree,
    else an adjacent flip found in O(log n) probes.  The probe sequence
    depends only on the timeline length and the probed values, never on
    the snapshot interval.  Exceptions from the evaluation propagate. *)
val find_transition : t -> (Res_vm.Exec.state -> int) -> transition option

(** The session as a header plus an instruction listing of the trace. *)
val pp : Format.formatter -> t -> unit
