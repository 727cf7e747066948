(** Deterministic suffix replay (paper §2.1).

    "A special environment is slipped underneath the debugger to
    instantiate [Mi] and replay [Ti]": the suffix's snapshot is concretized
    through the model into a runnable memory image, threads are placed at
    their suffix-start positions, the schedule is forced, input values are
    scripted, and MiniVM runs — the program deterministically runs into the
    same failure, which is verified byte-for-byte against the original
    coredump. *)

module IMap = Map.Make (Int)

type verdict = {
  reproduced : bool;  (** the failure state matches the coredump exactly *)
  replay_crash : Res_vm.Crash.t option;  (** what the replay produced *)
  replay_dump : Res_vm.Coredump.t option;
  trace : Res_vm.Event.t list;  (** instruction-level trace of the suffix *)
  divergence : string option;  (** why reproduction failed, if it did *)
  pinned : bool;
      (** the run consumed its scripts exactly: the scheduler picked
          precisely the suffix's scripted tids (no skipped entry, no
          round-robin fallback) and the oracle was read exactly once per
          scripted input.  With every nondeterministic event pinned, a
          reproducing run is the determinism witness (paper §2,
          requirement 5). *)
}

(** Build the initial VM state [Mi] for a suffix. *)
let initial_state ctx (suffix : Suffix.t) =
  let snapshot = suffix.Suffix.snapshot in
  let model = suffix.Suffix.model in
  let mem = Snapshot.concrete_mem snapshot model in
  let threads =
    IMap.map
      (fun (ts : Snapshot.thread_state) ->
        {
          Res_vm.Thread.tid = ts.Snapshot.ts_tid;
          frames = Snapshot.concrete_frames ts model;
          status = ts.Snapshot.ts_status;
        })
      snapshot.Snapshot.threads
  in
  Res_vm.Exec.make_state ctx.Backstep.prog ~mem ~heap:snapshot.Snapshot.heap
    ~threads

(* --- the replay engine ----------------------------------------------- *)

(* One engine replays a suffix, whether to verify it in one run or to
   stand still in the middle of it for the time-travel debugger.  A
   {!stepper} is a live VM positioned somewhere inside the replay: a
   [Sched.Fixed] scheduler over the suffix's scripted tids, a scripted
   input oracle, and [Exec.advance] — the scheduling step [Exec.run_state]
   is a loop over — driving it one instruction at a time.  So a stepper
   paused after [n] steps is the state any replay of the suffix has after
   [n] steps, because it is the same code.

   Every component of the VM state is persistent (memory, heap, threads,
   tracer are applicative maps/lists), and the scheduler's and oracle's
   cursors are a few words, so an {!image} — a point-in-time copy of the
   whole machine — is O(1) to take and to restore.  That is what makes a
   snapshot index over a replay essentially free to build: the only real
   cost of time travel is re-executing instructions, and the index exists
   to bound how many. *)

type stepper = {
  sp_st : Res_vm.Exec.state;
  sp_sched : Res_vm.Sched.t;  (** [Fixed] over the suffix's schedule *)
  sp_script : Res_vm.Oracle.script;  (** the suffix's input script *)
  sp_schedule : int list;  (** the scripted tids, for the [pinned] check *)
  mutable sp_cfg : Res_vm.Exec.config;
}

(** A stepper at step 0 of [suffix], recording the trace, with the
    dump's LBR depth and a fuel of [max_steps]. *)
let make_stepper ~max_steps ctx suffix (dump : Res_vm.Coredump.t) =
  let st = initial_state ctx suffix in
  let lbr_depth = dump.Res_vm.Coredump.tracer.Res_vm.Tracer.lbr_depth in
  st.Res_vm.Exec.tracer <- Res_vm.Tracer.create ~lbr_depth;
  let schedule = Suffix.schedule suffix in
  let sched = Res_vm.Sched.create (Res_vm.Sched.Fixed schedule) in
  let script = Res_vm.Oracle.script (Suffix.input_script suffix) in
  {
    sp_st = st;
    sp_sched = sched;
    sp_script = script;
    sp_schedule = schedule;
    sp_cfg =
      {
        (Res_vm.Exec.default_config ()) with
        sched;
        oracle = Res_vm.Oracle.of_script script;
        max_steps;
        lbr_depth;
        record_trace = true;
      };
  }

(** Steps executed so far — the stepper's position on the timeline. *)
let stepper_steps sp = sp.sp_st.Res_vm.Exec.steps

(** Step [sp] until the replay stops; [each] sees the stepper after every
    completed step. *)
let run sp each =
  let rec go () =
    match Res_vm.Exec.advance sp.sp_st sp.sp_cfg with
    | Res_vm.Exec.Ran ->
        each sp;
        go ()
    | Res_vm.Exec.Stopped outcome -> outcome
  in
  go ()

(** The run consumed its scripts exactly: [picks] are the scheduler's
    picks, oldest first, and [reads] the input values read. *)
let pinned sp picks reads =
  picks = sp.sp_schedule && reads = Array.length sp.sp_script.Res_vm.Oracle.values

(** The verdict on a run that stopped at [outcome] after recording
    [trace], against [dump]; [final] builds the machine a crash left. *)
let judge ~trace ~pinned outcome final (dump : Res_vm.Coredump.t) =
  match outcome with
  | Res_vm.Exec.Crashed crash ->
      let replay_dump = final crash in
      let reproduced = Res_vm.Coredump.same_failure_state replay_dump dump in
      let divergence =
        if reproduced then None
        else
          Some
            (if crash.Res_vm.Crash.kind <> dump.Res_vm.Coredump.crash.Res_vm.Crash.kind
             then
               Fmt.str "crash kind differs: %a vs %a" Res_vm.Crash.pp_kind
                 crash.Res_vm.Crash.kind Res_vm.Crash.pp_kind
                 dump.Res_vm.Coredump.crash.Res_vm.Crash.kind
             else
               let diffs =
                 Res_mem.Memory.diff replay_dump.Res_vm.Coredump.mem
                   dump.Res_vm.Coredump.mem
               in
               Fmt.str "state differs (%d memory cells)" (List.length diffs))
      in
      {
        reproduced;
        replay_crash = Some crash;
        replay_dump = Some replay_dump;
        trace;
        divergence;
        pinned;
      }
  | Res_vm.Exec.Exited | Res_vm.Exec.Out_of_fuel as outcome ->
      {
        reproduced = false;
        replay_crash = None;
        replay_dump = None;
        trace;
        divergence =
          Some
            (if outcome = Res_vm.Exec.Exited then "replay exited without crashing"
             else "replay ran out of fuel");
        pinned;
      }

(** The verdict on a stepper that has run to [outcome], against [dump]. *)
let verdict sp outcome dump =
  let st = sp.sp_st in
  judge
    ~trace:(List.rev st.Res_vm.Exec.trace_rev)
    ~pinned:
      (pinned sp
         (List.rev st.Res_vm.Exec.sched_trace_rev)
         sp.sp_script.Res_vm.Oracle.reads)
    outcome
    (fun crash ->
      {
        Res_vm.Coredump.crash;
        mem = st.Res_vm.Exec.mem;
        heap = st.Res_vm.Exec.heap;
        threads = st.Res_vm.Exec.threads;
        tracer = st.Res_vm.Exec.tracer;
        steps = st.Res_vm.Exec.steps;
      })
    dump

let default_max_steps = 100_000

(** Replay [suffix] and compare the resulting failure state with [dump]. *)
let replay ?(max_steps = default_max_steps) ctx suffix dump : verdict =
  let sp = make_stepper ~max_steps ctx suffix dump in
  verdict sp (run sp ignore) dump

(** Two runs agree: both reproduce under pinned scripts, with the same
    instruction trace and the same failure state. *)
let agree a b =
  a.reproduced && b.reproduced && a.pinned && b.pinned && a.trace = b.trace
  &&
  match (a.replay_dump, b.replay_dump) with
  | Some da, Some db -> Res_vm.Coredump.same_failure_state da db
  | _ -> false

(** Replay [times] times and check every run agrees with the first —
    an independent check of the determinism requirement (5) of paper §2,
    which [pinned] already witnesses for a single run. *)
let replay_deterministically ?(times = 3) ctx suffix dump =
  let verdicts = List.init times (fun _ -> replay ctx suffix dump) in
  match verdicts with
  | [] -> (true, verdicts)
  | first :: _ -> (List.for_all (agree first) verdicts, verdicts)

(* --- images ----------------------------------------------------------- *)

(** O(1) point-in-time copy of a replaying VM: the persistent state
    components plus the scheduler's and the input script's cursors.  It
    holds no trace and no pick log. *)
type image = {
  im_mem : Res_mem.Memory.t;
  im_heap : Res_mem.Heap.t;
  im_threads : Res_vm.Thread.t IMap.t;
  im_next_tid : int;
  im_tracer : Res_vm.Tracer.t;
  im_steps : int;
  im_current : int;
  im_sched : Res_vm.Sched.cursor;
  im_reads : int;
}

(** Capture the stepper's position as an image (O(1)). *)
let capture sp =
  let st = sp.sp_st in
  {
    im_mem = st.Res_vm.Exec.mem;
    im_heap = st.Res_vm.Exec.heap;
    im_threads = st.Res_vm.Exec.threads;
    im_next_tid = st.Res_vm.Exec.next_tid;
    im_tracer = st.Res_vm.Exec.tracer;
    im_steps = st.Res_vm.Exec.steps;
    im_current = st.Res_vm.Exec.current;
    im_sched = Res_vm.Sched.cursor sp.sp_sched;
    im_reads = sp.sp_script.Res_vm.Oracle.reads;
  }

(** Teleport the stepper back (or forward) to a captured image (O(1)).
    The trace and the pick log start empty again. *)
let restore sp im =
  let st = sp.sp_st in
  st.Res_vm.Exec.mem <- im.im_mem;
  st.Res_vm.Exec.heap <- im.im_heap;
  st.Res_vm.Exec.threads <- im.im_threads;
  st.Res_vm.Exec.next_tid <- im.im_next_tid;
  st.Res_vm.Exec.tracer <- im.im_tracer;
  st.Res_vm.Exec.steps <- im.im_steps;
  st.Res_vm.Exec.current <- im.im_current;
  if st.Res_vm.Exec.trace_rev != [] then st.Res_vm.Exec.trace_rev <- [];
  if st.Res_vm.Exec.sched_trace_rev != [] then
    st.Res_vm.Exec.sched_trace_rev <- [];
  Res_vm.Sched.set_cursor sp.sp_sched im.im_sched;
  sp.sp_script.Res_vm.Oracle.reads <- im.im_reads

(* --- handing a replay off to the suffix it extends --------------------- *)

(* Iterative deepening replays suffix k+1 after suffix k, and suffix k+1
   is one new segment in front of suffix k: its [segments] tail is
   physically k's list.  So its replay is that segment followed by k's
   replay, provided the machine the segment leaves behind is k's step-0
   machine on everything the rest of the run can observe (DESIGN.md §3).
   Then k+1's verdict is built from k's recorded {!run} instead of
   re-executing k's steps; on a miss the same stepper runs on to the end,
   so a miss costs only the comparison.  {!replay} stays the reference:
   every verdict {!extend} returns equals its. *)

(** A replay, as a later, longer suffix's replay needs it. *)
type run = {
  r_segments : Suffix.segment list;  (** the suffix's, physically *)
  r_start : image;  (** the machine at step 0 *)
  r_values : int array;  (** the input script *)
  r_default : int;  (** what the script yields past its end *)
  r_picks : int list;  (** the scheduler's picks, oldest first *)
  r_reads : int;  (** input values read *)
  r_outcome : Res_vm.Exec.outcome;
  r_steps : int;  (** steps when it stopped, a crash's faulting one counted *)
  r_verdict : verdict;
  r_handed_off : bool;  (** built from a shorter suffix's run *)
}

(** The run of a stepper started at [start] that has stopped at [outcome]. *)
let finish suffix sp start outcome dump =
  let st = sp.sp_st in
  {
    r_segments = suffix.Suffix.segments;
    r_start = start;
    r_values = sp.sp_script.Res_vm.Oracle.values;
    r_default = sp.sp_script.Res_vm.Oracle.default;
    r_picks = List.rev st.Res_vm.Exec.sched_trace_rev;
    r_reads = sp.sp_script.Res_vm.Oracle.reads;
    r_outcome = outcome;
    r_steps = st.Res_vm.Exec.steps;
    r_verdict = verdict sp outcome dump;
    r_handed_off = false;
  }

(** {!replay}, keeping the run. *)
let record ctx suffix dump =
  let sp = make_stepper ~max_steps:default_max_steps ctx suffix dump in
  let start = capture sp in
  finish suffix sp start (run sp ignore) dump

(* Whether [prev]'s run provably overwrites register [r] of thread
   [tid]'s root frame [fr], at index 0 of its block, before anything reads
   it: [tid]'s next segment in [prev] runs the block to completion; the
   block writes [r] at some [i] before reading it (so [r] is in
   [Block.defined_regs], not in [live_in_regs]); no call is at [0..i] (a
   callee could run the same pcs, or crash before its result lands); and
   [prev]'s trace shows [tid] executing [i]. *)
let dead_reg ctx prev tid (fr : Res_vm.Frame.t) r =
  match List.find_opt (fun s -> s.Suffix.seg_tid = tid) prev.r_segments with
  | Some
      {
        Suffix.seg_func;
        seg_block;
        seg_end = Suffix.Seg_branch _ | Suffix.Seg_ret | Suffix.Seg_halt;
        _;
      }
    when String.equal seg_func fr.Res_vm.Frame.func
         && String.equal seg_block fr.Res_vm.Frame.block -> (
      let b =
        Res_ir.Prog.block ctx.Backstep.prog ~func:seg_func ~label:seg_block
      in
      let rec first_write i =
        if i >= Res_ir.Block.length b then None
        else
          match Res_ir.Block.instr b i with
          | Res_ir.Instr.Call _ -> None
          | ins when List.mem r (Res_ir.Instr.uses ins) -> None
          | ins when Res_ir.Instr.defs ins = Some r -> Some i
          | _ -> first_write (i + 1)
      in
      match first_write 0 with
      | None -> false
      | Some i ->
          List.exists
            (fun (e : Res_vm.Event.t) ->
              e.Res_vm.Event.tid = tid
              && e.Res_vm.Event.pc.Res_ir.Pc.idx = i
              && String.equal e.Res_vm.Event.pc.Res_ir.Pc.block seg_block
              && String.equal e.Res_vm.Event.pc.Res_ir.Pc.func seg_func)
            prev.r_verdict.trace)
  | _ -> false

(* [a] (the extending run's) and [b] ([prev]'s) are the same thread, or
   differ only in registers [prev]'s run provably overwrites unread. *)
let same_thread ctx prev (a : Res_vm.Thread.t) (b : Res_vm.Thread.t) =
  Res_vm.Thread.equal a b
  ||
  match (a.Res_vm.Thread.frames, b.Res_vm.Thread.frames) with
  | [ fa ], [ fb ]
    when a.Res_vm.Thread.tid = b.Res_vm.Thread.tid
         && a.Res_vm.Thread.status = b.Res_vm.Thread.status
         && fa.Res_vm.Frame.idx = 0
         && Res_vm.Frame.equal { fa with Res_vm.Frame.regs = fb.Res_vm.Frame.regs } fb
    ->
      let agree other r v =
        v = Res_vm.Frame.read_reg other r
        || dead_reg ctx prev b.Res_vm.Thread.tid fb r
      in
      Res_vm.Frame.IMap.for_all (agree fb) fa.Res_vm.Frame.regs
      && Res_vm.Frame.IMap.for_all (agree fa) fb.Res_vm.Frame.regs
  | _ -> false

(* The remaining input script of [sp] is [prev]'s whole one. *)
let same_inputs sp prev =
  let s = sp.sp_script in
  let off = s.Res_vm.Oracle.reads in
  let n = Array.length prev.r_values in
  s.Res_vm.Oracle.default = prev.r_default
  && Array.length s.Res_vm.Oracle.values - off = n
  &&
  let rec go i =
    i >= n
    || (s.Res_vm.Oracle.values.(off + i) = prev.r_values.(i) && go (i + 1))
  in
  go 0

(** Whether the rest of [sp]'s run is [prev]'s run, [sp]'s steps later:
    within fuel, and [sp]'s machine equals [prev]'s step-0 one on memory,
    heap, [next_tid], scheduler cursor, remaining inputs and threads, with
    [current] compared only where it keeps the CPU and registers allowed to
    differ only where they are dead ({!dead_reg}).  A replay injects no
    faults, so the step count itself matters only to fuel and to the
    events' stamps, which {!join} shifts. *)
let resumes ctx sp prev =
  let st = sp.sp_st and y = prev.r_start in
  (match prev.r_outcome with
  | Res_vm.Exec.Out_of_fuel -> false
  | Res_vm.Exec.Crashed _ | Res_vm.Exec.Exited -> true)
  && st.Res_vm.Exec.steps + prev.r_steps < default_max_steps
  && st.Res_vm.Exec.next_tid = y.im_next_tid
  && Res_vm.Sched.cursor sp.sp_sched = y.im_sched
  && same_inputs sp prev
  && (st.Res_vm.Exec.current = y.im_current
     || not
          (Res_vm.Exec.must_continue st
          || Res_vm.Exec.holds_cpu y.im_threads y.im_current))
  && Res_mem.Memory.equal st.Res_vm.Exec.mem y.im_mem
  && Res_mem.Heap.equal st.Res_vm.Exec.heap y.im_heap
  && IMap.equal (same_thread ctx prev) st.Res_vm.Exec.threads y.im_threads

(* [sp]'s first segment followed by [prev]'s run: events, picks, reads and
   steps joined, the final machine [prev]'s with the two tracers joined. *)
let join suffix sp start prev dump =
  let st = sp.sp_st in
  let n0 = st.Res_vm.Exec.steps in
  let first_tracer = st.Res_vm.Exec.tracer in
  let trace =
    List.rev_append st.Res_vm.Exec.trace_rev
      (List.map
         (fun (e : Res_vm.Event.t) -> { e with Res_vm.Event.step = e.step + n0 })
         prev.r_verdict.trace)
  in
  let picks = List.rev_append st.Res_vm.Exec.sched_trace_rev prev.r_picks in
  let reads = sp.sp_script.Res_vm.Oracle.reads + prev.r_reads in
  let steps = n0 + prev.r_steps in
  let final crash =
    match prev.r_verdict.replay_dump with
    | Some d ->
        {
          d with
          Res_vm.Coredump.crash;
          tracer = Res_vm.Tracer.append first_tracer d.Res_vm.Coredump.tracer;
          steps;
        }
    | None -> invalid_arg "Replay.join: a crashed run without its machine"
  in
  {
    r_segments = suffix.Suffix.segments;
    r_start = start;
    r_values = sp.sp_script.Res_vm.Oracle.values;
    r_default = sp.sp_script.Res_vm.Oracle.default;
    r_picks = picks;
    r_reads = reads;
    r_outcome = prev.r_outcome;
    r_steps = steps;
    r_verdict =
      judge ~trace ~pinned:(pinned sp picks reads) prev.r_outcome final dump;
    r_handed_off = true;
  }

(** The run of [suffix], whose segments after its first are [prev]'s:
    replay the first segment, up to the next scheduling pick, then hand
    off to [prev] if it {!resumes} there, else run on to the end.  Its
    verdict equals [replay ctx suffix dump]'s either way. *)
let extend ctx suffix dump prev =
  let sp = make_stepper ~max_steps:default_max_steps ctx suffix dump in
  let start = capture sp in
  let rec first () =
    match Res_vm.Exec.advance sp.sp_st sp.sp_cfg with
    | Res_vm.Exec.Ran ->
        if Res_vm.Exec.must_continue sp.sp_st then first () else None
    | Res_vm.Exec.Stopped outcome -> Some outcome
  in
  match first () with
  | Some outcome -> finish suffix sp start outcome dump
  | None when resumes ctx sp prev -> join suffix sp start prev dump
  | None -> finish suffix sp start (run sp ignore) dump

(** The replays of one deepening analysis, each handed off to the run of
    the shorter suffix it extends when one was replayed before. *)
module Chain = struct
  type t = { mutable runs : run list; mutable handoffs : int }

  let create () = { runs = []; handoffs = 0 }

  (** Replays handed off so far. *)
  let handoffs t = t.handoffs

  (** [suffix]'s verdict, equal to [replay ctx suffix dump]'s. *)
  let replay t ctx suffix dump =
    let prev =
      match suffix.Suffix.segments with
      | _ :: (_ :: _ as tail) ->
          List.find_opt (fun r -> r.r_segments == tail) t.runs
      | _ -> None
    in
    let r =
      match prev with
      | Some prev -> extend ctx suffix dump prev
      | None -> record ctx suffix dump
    in
    if r.r_handed_off then t.handoffs <- t.handoffs + 1;
    t.runs <- r :: t.runs;
    r.r_verdict
end

(* --- snapshot index --------------------------------------------------- *)

(** Snapshot index over one suffix replay (FReD-style), with a backward
    window.

    Built on the verifying replay itself, which keeps an {!image} every
    [interval] steps, the index turns "state after step [n]" from
    O(execution length) — replay from step 0 — into O(interval): restore
    the nearest snapshot at or below [n] and re-execute forward.  A seek
    that moves backward keeps the image of every step it re-executes, in
    one window of at most [interval] images, so the next backward seeks
    into that window restore an image and re-execute nothing: a reverse
    walk re-executes each instruction at most once, as a forward walk
    does.  With the index disabled ([interval = 0]) only the step-0 image
    exists and there is no window, which {e is} the replay-from-zero
    baseline; every query is answered through the same code path either
    way, so enabling the index can change only the amount of
    re-execution, never a result. *)
module Index = struct
  type t = {
    ix_sp : stepper;  (** the live cursor seeks move *)
    ix_interval : int;  (** 0 = disabled (single snapshot at step 0) *)
    ix_images : image array;  (** snapshots at steps 0, k, 2k, ... *)
    ix_length : int;  (** completed steps in the suffix (crash excluded) *)
    mutable ix_window : image array;
        (** images of steps [ix_win_lo ..]; empty until the first backward
            seek, then [min interval (ix_length + 1)] slots, reused *)
    mutable ix_win_lo : int;
    mutable ix_win_hi : int;  (** the window holds steps
                                  [ix_win_lo, ix_win_hi]; empty if hi < lo *)
    mutable ix_restores : int;  (** snapshot restores performed by seeks *)
    mutable ix_window_restores : int;  (** window images restored by seeks *)
    mutable ix_replayed : int;  (** instructions re-executed by seeks *)
  }

  (** {!replay}, keeping an image every [interval] steps: the verdict, and
      the index over the replay's timeline with its cursor at the last
      completed step.  The run itself stops one attempt past that step (a
      crash counts its faulting attempt), so the cursor is put back on the
      image taken after it; seeks then run without a trace. *)
  let replay ~interval ctx suffix dump =
    if interval < 0 then invalid_arg "Replay.Index.replay: negative interval";
    let sp = make_stepper ~max_steps:default_max_steps ctx suffix dump in
    let last = ref (capture sp) in
    let images = ref [ !last ] in
    let outcome =
      run sp (fun sp ->
          let im = capture sp in
          last := im;
          if interval > 0 && im.im_steps mod interval = 0 then
            images := im :: !images)
    in
    let v = verdict sp outcome dump in
    restore sp !last;
    sp.sp_cfg <- { sp.sp_cfg with record_trace = false };
    ( v,
      {
        ix_sp = sp;
        ix_interval = interval;
        ix_images = Array.of_list (List.rev !images);
        ix_length = !last.im_steps;
        ix_window = [||];
        ix_win_lo = 0;
        ix_win_hi = -1;
        ix_restores = 0;
        ix_window_restores = 0;
        ix_replayed = 0;
      } )

  let length t = t.ix_length
  let interval t = t.ix_interval

  (** Position the cursor at exactly [n] executed steps and return its
      state.  A backward seek into the window restores its image of [n].
      Otherwise the seek continues forward from the cursor's current
      position when that is cheaper than restoring, or restores the
      nearest snapshot at or below [n] and replays forward; a backward one
      refills the window with the images of the steps it replays.  The
      resulting state is bit-for-bit what a fresh replay of [n] steps
      produces. *)
  let seek t n =
    if n < 0 || n > t.ix_length then
      invalid_arg (Fmt.str "Replay.Index.seek: step %d out of [0,%d]" n t.ix_length);
    let sp = t.ix_sp in
    let cur = stepper_steps sp in
    if cur > n && t.ix_win_lo <= n && n <= t.ix_win_hi then begin
      restore sp t.ix_window.(n - t.ix_win_lo);
      t.ix_window_restores <- t.ix_window_restores + 1
    end
    else begin
      let snap = if t.ix_interval = 0 then 0 else n / t.ix_interval in
      let snap = min snap (Array.length t.ix_images - 1) in
      let snap_step = t.ix_images.(snap).im_steps in
      if cur > n || cur < snap_step then begin
        restore sp t.ix_images.(snap);
        t.ix_restores <- t.ix_restores + 1
      end;
      let fill = cur > n && t.ix_interval > 0 in
      if fill then begin
        if Array.length t.ix_window = 0 then
          t.ix_window <-
            Array.make (min t.ix_interval (t.ix_length + 1)) t.ix_images.(0);
        t.ix_win_lo <- snap_step;
        t.ix_win_hi <- -1;
        t.ix_window.(0) <- t.ix_images.(snap)
      end;
      while stepper_steps sp < n do
        (match Res_vm.Exec.advance sp.sp_st sp.sp_cfg with
        | Res_vm.Exec.Ran -> ()
        | Res_vm.Exec.Stopped _ ->
            invalid_arg "Replay.Index.seek: suffix ended early");
        t.ix_replayed <- t.ix_replayed + 1;
        if fill then t.ix_window.(stepper_steps sp - snap_step) <- capture sp
      done;
      if fill then t.ix_win_hi <- n
    end;
    sp.sp_st
end
