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

(** Replay [suffix] and compare the resulting failure state with [dump]. *)
let replay ?(max_steps = 100_000) ctx (suffix : Suffix.t)
    (dump : Res_vm.Coredump.t) : verdict =
  let state = initial_state ctx suffix in
  let schedule = Suffix.schedule suffix in
  let inputs = Suffix.input_script suffix in
  let script = Res_vm.Oracle.scripted inputs in
  let reads = ref 0 in
  let config =
    {
      (Res_vm.Exec.default_config ()) with
      sched = Res_vm.Sched.create (Res_vm.Sched.Fixed schedule);
      oracle =
        {
          Res_vm.Oracle.next =
            (fun kind ->
              incr reads;
              script.Res_vm.Oracle.next kind);
        };
      max_steps;
      record_trace = true;
      lbr_depth = dump.Res_vm.Coredump.tracer.Res_vm.Tracer.lbr_depth;
    }
  in
  let result = Res_vm.Exec.run_state ~config state in
  let pinned =
    result.Res_vm.Exec.schedule = schedule && !reads = List.length inputs
  in
  match result.Res_vm.Exec.outcome with
  | Res_vm.Exec.Crashed crash ->
      let replay_dump =
        {
          Res_vm.Coredump.crash;
          mem = result.Res_vm.Exec.final.Res_vm.Exec.mem;
          heap = result.Res_vm.Exec.final.Res_vm.Exec.heap;
          threads = result.Res_vm.Exec.final.Res_vm.Exec.threads;
          tracer = result.Res_vm.Exec.final.Res_vm.Exec.tracer;
          steps = result.Res_vm.Exec.final.Res_vm.Exec.steps;
        }
      in
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
        trace = result.Res_vm.Exec.trace;
        divergence;
        pinned;
      }
  | Res_vm.Exec.Exited ->
      {
        reproduced = false;
        replay_crash = None;
        replay_dump = None;
        trace = result.Res_vm.Exec.trace;
        divergence = Some "replay exited without crashing";
        pinned;
      }
  | Res_vm.Exec.Out_of_fuel ->
      {
        reproduced = false;
        replay_crash = None;
        replay_dump = None;
        trace = result.Res_vm.Exec.trace;
        divergence = Some "replay ran out of fuel";
        pinned;
      }

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

(* --- resumable stepper ------------------------------------------------ *)

(* The batch replayer above runs a suffix start-to-crash in one call; the
   time-travel debugger instead needs to stand still in the middle of a
   replay, run one instruction, and jump around.  A {!stepper} is a live
   VM positioned somewhere inside the suffix, driven one instruction at a
   time with exactly the scheduling and input decisions [replay] makes, so
   a stepper paused after [n] steps is bit-for-bit the state the batch
   replay has after [n] steps.

   Every component of the VM state is persistent (memory, heap, threads,
   tracer are applicative maps/lists), so an {!image} — a point-in-time
   copy of the whole machine — is O(1) to take and to restore.  That is
   what makes a snapshot index over a replay essentially free to build:
   the only real cost of time travel is re-executing instructions, and the
   index exists to bound how many. *)

(** O(1) point-in-time copy of a replaying VM: the persistent state
    components plus the replay cursors (position in the scripted schedule
    and input list, and the round-robin fallback cursor). *)
type image = {
  im_mem : Res_mem.Memory.t;
  im_heap : Res_mem.Heap.t;
  im_threads : Res_vm.Thread.t IMap.t;
  im_next_tid : int;
  im_tracer : Res_vm.Tracer.t;
  im_steps : int;
  im_current : int;
  im_sched_pos : int;
  im_input_pos : int;
  im_rr_last : int;
}

type stepper = {
  sp_st : Res_vm.Exec.state;
  sp_cfg : Res_vm.Exec.config;
  sp_schedule : int array;  (** the suffix's scripted tids, in full *)
  mutable sp_sched_pos : int;  (** next schedule entry to consume *)
  sp_input_pos : int ref;  (** next input value to consume (read by the
                               oracle closure inside [sp_cfg]) *)
  mutable sp_rr_last : int;  (** round-robin fallback cursor, as in Sched *)
}

(** What one forward step did. *)
type step_outcome =
  | Stepped  (** one instruction executed; the stepper advanced *)
  | Step_crashed of Res_vm.Crash.t
      (** the next instruction crashes (or every live thread is blocked:
          deadlock); the stepper did not advance *)
  | Step_exited  (** every thread halted; nothing left to execute *)

(** A live stepper at step 0 of the suffix — the state [initial_state]
    builds, with the schedule and input script still whole. *)
let make_stepper ctx (suffix : Suffix.t) =
  let st = initial_state ctx suffix in
  st.Res_vm.Exec.tracer <- Res_vm.Tracer.create ~lbr_depth:16;
  let inputs = Array.of_list (Suffix.input_script suffix) in
  let input_pos = ref 0 in
  let oracle =
    {
      Res_vm.Oracle.next =
        (fun _kind ->
          if !input_pos < Array.length inputs then begin
            let v = inputs.(!input_pos) in
            incr input_pos;
            v
          end
          else 0);
    }
  in
  let cfg =
    {
      (Res_vm.Exec.default_config ()) with
      oracle;
      max_steps = max_int;
      record_trace = false;
    }
  in
  {
    sp_st = st;
    sp_cfg = cfg;
    sp_schedule = Array.of_list (Suffix.schedule suffix);
    sp_sched_pos = 0;
    sp_input_pos = input_pos;
    sp_rr_last = -1;
  }

(** Steps executed so far — the stepper's position on the timeline. *)
let stepper_steps sp = sp.sp_st.Res_vm.Exec.steps

(* Sched.round_robin, replicated over the stepper's own cursor so the
   whole scheduling state is capturable in an image. *)
let rr_pick sp runnable =
  let above = List.filter (fun tid -> tid > sp.sp_rr_last) runnable in
  let chosen = match above with tid :: _ -> tid | [] -> List.hd runnable in
  sp.sp_rr_last <- chosen;
  chosen

(** Execute exactly one instruction, making the same scheduling decision
    [Exec.run_state] under a [Sched.Fixed] schedule would make.  A
    crashing step leaves the stepper exactly where it was (the faulting
    instruction never completes and has no step), so probing the crash is
    idempotent: the schedule cursor, input cursor, and step count are all
    rolled back. *)
let step_once sp =
  let st = sp.sp_st in
  let sched_pos0 = sp.sp_sched_pos
  and input_pos0 = !(sp.sp_input_pos)
  and rr_last0 = sp.sp_rr_last
  and current0 = st.Res_vm.Exec.current in
  let run_tid tid =
    match Res_vm.Exec.step st sp.sp_cfg tid with
    | Some crash ->
        (* No crash path mutates memory/heap/threads before raising, so
           rolling back the cursors restores the pre-step position. *)
        st.Res_vm.Exec.steps <- st.Res_vm.Exec.steps - 1;
        sp.sp_sched_pos <- sched_pos0;
        sp.sp_input_pos := input_pos0;
        sp.sp_rr_last <- rr_last0;
        st.Res_vm.Exec.current <- current0;
        Step_crashed crash
    | None -> Stepped
  in
  if Res_vm.Exec.must_continue st then run_tid st.Res_vm.Exec.current
  else
    match Res_vm.Exec.runnable_tids st with
    | [] -> (
        match Res_vm.Exec.blocked_tids st with
        | [] -> Step_exited
        | blocked ->
            let tid = List.hd blocked in
            let pc = Res_vm.Thread.pc (Res_vm.Exec.get_thread st tid) in
            Step_crashed { Res_vm.Crash.kind = Res_vm.Crash.Deadlock blocked; tid; pc })
    | runnable ->
        let tid =
          if sp.sp_sched_pos < Array.length sp.sp_schedule then begin
            let t = sp.sp_schedule.(sp.sp_sched_pos) in
            sp.sp_sched_pos <- sp.sp_sched_pos + 1;
            if List.mem t runnable then t else rr_pick sp runnable
          end
          else rr_pick sp runnable
        in
        st.Res_vm.Exec.current <- tid;
        run_tid tid

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
    im_sched_pos = sp.sp_sched_pos;
    im_input_pos = !(sp.sp_input_pos);
    im_rr_last = sp.sp_rr_last;
  }

(** Teleport the stepper back (or forward) to a captured image (O(1)). *)
let restore sp im =
  let st = sp.sp_st in
  st.Res_vm.Exec.mem <- im.im_mem;
  st.Res_vm.Exec.heap <- im.im_heap;
  st.Res_vm.Exec.threads <- im.im_threads;
  st.Res_vm.Exec.next_tid <- im.im_next_tid;
  st.Res_vm.Exec.tracer <- im.im_tracer;
  st.Res_vm.Exec.steps <- im.im_steps;
  st.Res_vm.Exec.current <- im.im_current;
  sp.sp_sched_pos <- im.im_sched_pos;
  sp.sp_input_pos := im.im_input_pos;
  sp.sp_rr_last <- im.im_rr_last

(* --- snapshot index --------------------------------------------------- *)

(** Snapshot index over one suffix replay (FReD-style), with a backward
    window.

    Built by a single forward replay that captures an {!image} every
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

  (** Build the index by replaying the stepper forward from its current
      position (normally step 0) to the end of the suffix.  Returns the
      index; the stepper is left at the end of the timeline. *)
  let build ?(interval = 64) sp =
    if interval < 0 then invalid_arg "Replay.Index.build: negative interval";
    let images = ref [ capture sp ] in
    let rec go () =
      match step_once sp with
      | Stepped ->
          if interval > 0 && stepper_steps sp mod interval = 0 then
            images := capture sp :: !images;
          go ()
      | Step_crashed _ | Step_exited -> ()
    in
    go ();
    {
      ix_interval = interval;
      ix_images = Array.of_list (List.rev !images);
      ix_length = stepper_steps sp;
      ix_window = [||];
      ix_win_lo = 0;
      ix_win_hi = -1;
      ix_restores = 0;
      ix_window_restores = 0;
      ix_replayed = 0;
    }

  let length t = t.ix_length
  let interval t = t.ix_interval

  (** Position [sp] at exactly [n] executed steps.  A backward seek into
      the window restores its image of [n].  Otherwise the seek continues
      forward from the stepper's current position when that is cheaper
      than restoring, or restores the nearest snapshot at or below [n] and
      replays forward; a backward one refills the window with the images
      of the steps it replays.  The resulting state is bit-for-bit what a
      fresh replay of [n] steps produces. *)
  let seek t sp n =
    if n < 0 || n > t.ix_length then
      invalid_arg (Fmt.str "Replay.Index.seek: step %d out of [0,%d]" n t.ix_length);
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
        (match step_once sp with
        | Stepped -> ()
        | Step_crashed _ | Step_exited ->
            invalid_arg "Replay.Index.seek: suffix ended early");
        t.ix_replayed <- t.ix_replayed + 1;
        if fill then t.ix_window.(stepper_steps sp - snap_step) <- capture sp
      done;
      if fill then t.ix_win_hi <- n
    end;
    sp.sp_st
end
