(** Interactive time-travel session over one verified suffix.

    The engine is a pure command evaluator over a {!Res_core.Debugger.t},
    which verifies the suffix and owns its trace, stepper and snapshot
    index.  The session holds only UI state (position on the timeline,
    focused thread, breakpoints, watchpoints, assert counts) and renders
    every command's result to a formatter — no TTY anywhere, so a session
    transcript is a deterministic function of the suffix and the command
    sequence.  The REPL and script runner are thin drivers ({!Script}).

    Positions are the debugger's: position [p] means "the first [p]
    instructions of the suffix have executed", [p = 0] is the synthesized
    suffix start, [p = N] is the crash point (the faulting instruction
    never completes).  A step with no event is a scheduling attempt that
    blocked a thread, and the final [ret] of a thread emits two. *)

module IMap = Map.Make (Int)
module Debugger = Res_core.Debugger

type breakpoint = { bp_id : int; bp_pc : Res_ir.Pc.t }

type watchpoint = {
  wp_id : int;
  wp_expr : Predicate.expr;
  wp_src : string;
}

type t = {
  dbg : Debugger.t;  (** the verified suffix: trace, stepper, index *)
  mutable pos : int;  (** current position, [0..N] *)
  mutable focus : int;  (** thread for [r<N>] and [regs] *)
  mutable breakpoints : breakpoint list;  (** newest first *)
  mutable next_bp : int;
  mutable watchpoints : watchpoint list;  (** newest first *)
  mutable next_wp : int;
  mutable asserts_failed : int;
  mutable asserts_run : int;
}

(** A session at position 0 of [dbg], focused on the crashing thread. *)
let create dbg =
  {
    dbg;
    pos = 0;
    focus = (Debugger.crash dbg).Res_vm.Crash.tid;
    breakpoints = [];
    next_bp = 1;
    watchpoints = [];
    next_wp = 1;
    asserts_failed = 0;
    asserts_run = 0;
  }

let length t = Debugger.total_steps t.dbg
let position t = t.pos
let assert_failures t = t.asserts_failed

(* --- evaluation helpers ------------------------------------------------ *)

let state_at t p = Debugger.state_at t.dbg p

let eval t e st =
  Predicate.eval ~layout:(Debugger.layout t.dbg) ~focus:t.focus st e

let eval_at t p e = eval t e (state_at t p)

(** The breakpoint position [p] stops at, if any ({!Debugger.pcs_at}). *)
let at_breakpoint t p =
  let pcs = Debugger.pcs_at t.dbg p in
  List.find_opt
    (fun bp -> List.exists (Res_ir.Pc.equal bp.bp_pc) pcs)
    t.breakpoints

(* --- rendering --------------------------------------------------------- *)

let pp_position ppf (t, p) =
  if p < length t then
    match Debugger.events_at t.dbg p with
    | e :: _ ->
        Fmt.pf ppf "step %d/%d: t%d %a: %a" p (length t) e.Res_vm.Event.tid
          Res_ir.Pc.pp e.Res_vm.Event.pc Res_vm.Event.pp_action
          e.Res_vm.Event.action
    | [] ->
        Fmt.pf ppf "step %d/%d: (scheduling attempt, thread blocked)" p
          (length t)
  else
    Fmt.pf ppf "step %d/%d: CRASH %a" p (length t) Res_vm.Crash.pp
      (Debugger.crash t.dbg)

let print_where t ppf = Fmt.pf ppf "%a@." pp_position (t, t.pos)

let describe_addr t addr =
  match Res_mem.Layout.find_global (Debugger.layout t.dbg) addr with
  | Some (base, _, name) when base = addr -> Fmt.str " (&%s)" name
  | Some (base, _, name) -> Fmt.str " (&%s+%d)" name (addr - base)
  | None -> ""

(* --- command execution ------------------------------------------------- *)

type outcome = [ `Ok | `Err | `Quit ]

let clamp_pos t p = max 0 (min (length t) p)

let move t ppf p =
  t.pos <- clamp_pos t p;
  print_where t ppf

(** Watch origin values at the current position, [(id, src, value)];
    unresolvable expressions (unknown global) are reported and skipped. *)
let watch_origins t ppf =
  List.filter_map
    (fun wp ->
      match eval_at t t.pos wp.wp_expr with
      | v -> Some (wp, v)
      | exception Predicate.Eval_error msg ->
          Fmt.pf ppf "watchpoint #%d (%s) skipped: %s@." wp.wp_id wp.wp_src
            msg;
          None)
    (List.rev t.watchpoints)

(** What stops a run at position [p]: a breakpoint there, else the
    watchpoints whose value differs from their origin [v0], as
    [(wp, v0, v)]. *)
let stop_at t origins p =
  match at_breakpoint t p with
  | Some bp -> Some (`Bp bp)
  | None -> (
      let changed =
        List.filter_map
          (fun (wp, v0) ->
            match eval_at t p wp.wp_expr with
            | v when v <> v0 -> Some (wp, v0, v)
            | _ -> None
            | exception Predicate.Eval_error _ -> None)
          origins
      in
      match changed with [] -> None | l -> Some (`Watch l))

(** Move to where a run stopped, or to [default] when nothing stopped it,
    and report why. *)
let finish_run t ppf ~backward ~default = function
  | Some (p, `Bp bp) ->
      t.pos <- p;
      Fmt.pf ppf "breakpoint #%d hit@." bp.bp_id;
      print_where t ppf
  | Some (p, `Watch changed) ->
      t.pos <- p;
      List.iter
        (fun (wp, v0, v) ->
          (* moving backward, the value changes from v (older) to v0 *)
          let older, newer = if backward then (v, v0) else (v0, v) in
          Fmt.pf ppf "watchpoint #%d: %s: %d -> %d@." wp.wp_id wp.wp_src older
            newer)
        changed;
      print_where t ppf
  | None ->
      t.pos <- default;
      print_where t ppf

(** Forward run: stop at the first position [> pos] that hits a
    breakpoint or changes a watched value, else at the crash.  Positions
    are visited ascending, so the whole run costs one re-execution pass no
    matter how many watchpoints are set. *)
let run_forward t ppf =
  let origins = watch_origins t ppf in
  let n = length t in
  let rec go p =
    if p > n then None
    else
      match stop_at t origins p with
      | Some h -> Some (p, h)
      | None -> go (p + 1)
  in
  finish_run t ppf ~backward:false ~default:n (go (t.pos + 1))

(** Backward run: stop at the {e largest} position [< pos] that hits a
    breakpoint or holds a watched value different from the current one,
    else at position 0.  Scans snapshot-aligned chunks from the highest
    downward; inside a chunk positions are visited ascending (cheap), and
    the last match in the first matching chunk is the answer — identical
    to a full backward scan, O(interval) replay per chunk. *)
let run_backward t ppf =
  let origins = watch_origins t ppf in
  let k = Debugger.snapshot_every t.dbg in
  let found = ref None in
  let hi = ref (t.pos - 1) in
  while !found = None && !hi >= 0 do
    let lo = if k = 0 then 0 else !hi / k * k in
    (* ascending pass over [lo..hi]; keep the last (= largest) match *)
    for p = lo to !hi do
      match stop_at t origins p with
      | Some h -> found := Some (p, h)
      | None -> ()
    done;
    hi := lo - 1
  done;
  finish_run t ppf ~backward:true ~default:0 !found

let exec_list t ppf n =
  let lo = clamp_pos t (t.pos - n) and hi = clamp_pos t (t.pos + n) in
  for p = lo to hi do
    let marker = if p = t.pos then ">" else " " in
    Fmt.pf ppf "%s %a@." marker pp_position (t, p)
  done

let exec_regs t ppf tid =
  let st = state_at t t.pos in
  match IMap.find_opt tid st.Res_vm.Exec.threads with
  | None -> Fmt.pf ppf "no thread %d@." tid
  | Some th -> (
      Fmt.pf ppf "t%d: %a@." tid Res_vm.Thread.pp_status
        th.Res_vm.Thread.status;
      match Res_vm.Thread.top_opt th with
      | None -> ()
      | Some fr ->
          Fmt.pf ppf "  at %a@." Res_ir.Pc.pp (Res_vm.Frame.pc fr);
          let bindings = Res_vm.Frame.reg_bindings fr in
          if bindings = [] then Fmt.pf ppf "  (no registers written)@."
          else
            List.iter
              (fun (r, v) -> Fmt.pf ppf "  r%d = %d@." r v)
              bindings)

let exec_threads t ppf =
  let st = state_at t t.pos in
  IMap.iter
    (fun tid th ->
      let marker = if tid = t.focus then "*" else " " in
      let pc =
        match Res_vm.Thread.top_opt th with
        | Some fr -> Fmt.str " at %a" Res_ir.Pc.pp (Res_vm.Frame.pc fr)
        | None -> ""
      in
      Fmt.pf ppf "%s t%d: %a%s@." marker tid Res_vm.Thread.pp_status
        th.Res_vm.Thread.status pc)
    st.Res_vm.Exec.threads

let exec_mem t ppf addr_e count =
  match eval_at t t.pos addr_e with
  | exception Predicate.Eval_error msg -> Fmt.pf ppf "error: %s@." msg
  | addr ->
      let st = state_at t t.pos in
      for i = 0 to count - 1 do
        let a = addr + i in
        Fmt.pf ppf "[0x%x]%s = %d@." a (describe_addr t a)
          (Res_mem.Memory.read st.Res_vm.Exec.mem a)
      done

(** Execute one parsed command, rendering its output to [ppf]. *)
let exec_cmd t ppf (cmd : Command.t) : outcome =
  match cmd with
  | Command.Nop -> `Ok
  | Command.Help ->
      Fmt.pf ppf "%s@." Command.help_text;
      `Ok
  | Command.Quit -> `Quit
  | Command.Where ->
      print_where t ppf;
      `Ok
  | Command.Step n ->
      move t ppf (t.pos + n);
      `Ok
  | Command.Step_back n ->
      move t ppf (t.pos - n);
      `Ok
  | Command.Goto p ->
      if p < 0 || p > length t then begin
        Fmt.pf ppf "error: step %d out of [0,%d]@." p (length t);
        `Err
      end
      else begin
        move t ppf p;
        `Ok
      end
  | Command.Thread tid ->
      t.focus <- tid;
      Fmt.pf ppf "focus: t%d@." tid;
      `Ok
  | Command.Continue ->
      run_forward t ppf;
      `Ok
  | Command.Continue_back ->
      run_backward t ppf;
      `Ok
  | Command.Break pc ->
      let bp = { bp_id = t.next_bp; bp_pc = pc } in
      t.next_bp <- t.next_bp + 1;
      t.breakpoints <- bp :: t.breakpoints;
      Fmt.pf ppf "breakpoint #%d at %a (%d hits in suffix)@." bp.bp_id
        Res_ir.Pc.pp pc
        (List.length (Debugger.break_all t.dbg pc));
      `Ok
  | Command.Delete id ->
      if List.exists (fun bp -> bp.bp_id = id) t.breakpoints then begin
        t.breakpoints <- List.filter (fun bp -> bp.bp_id <> id) t.breakpoints;
        Fmt.pf ppf "deleted breakpoint #%d@." id;
        `Ok
      end
      else begin
        Fmt.pf ppf "error: no breakpoint #%d@." id;
        `Err
      end
  | Command.Breaks ->
      if t.breakpoints = [] then Fmt.pf ppf "no breakpoints@."
      else
        List.iter
          (fun bp -> Fmt.pf ppf "#%d at %a@." bp.bp_id Res_ir.Pc.pp bp.bp_pc)
          (List.rev t.breakpoints);
      `Ok
  | Command.Watch (e, src) -> (
      match eval_at t t.pos e with
      | exception Predicate.Eval_error msg ->
          Fmt.pf ppf "error: %s@." msg;
          `Err
      | v ->
          let wp = { wp_id = t.next_wp; wp_expr = e; wp_src = src } in
          t.next_wp <- t.next_wp + 1;
          t.watchpoints <- wp :: t.watchpoints;
          Fmt.pf ppf "watchpoint #%d: %s = %d@." wp.wp_id src v;
          `Ok)
  | Command.Unwatch id ->
      if List.exists (fun wp -> wp.wp_id = id) t.watchpoints then begin
        t.watchpoints <- List.filter (fun wp -> wp.wp_id <> id) t.watchpoints;
        Fmt.pf ppf "deleted watchpoint #%d@." id;
        `Ok
      end
      else begin
        Fmt.pf ppf "error: no watchpoint #%d@." id;
        `Err
      end
  | Command.Watches ->
      if t.watchpoints = [] then Fmt.pf ppf "no watchpoints@."
      else
        List.iter
          (fun wp ->
            match eval_at t t.pos wp.wp_expr with
            | v -> Fmt.pf ppf "#%d: %s = %d@." wp.wp_id wp.wp_src v
            | exception Predicate.Eval_error msg ->
                Fmt.pf ppf "#%d: %s (error: %s)@." wp.wp_id wp.wp_src msg)
          (List.rev t.watchpoints);
      `Ok
  | Command.Twatch (e, src) -> (
      match Debugger.find_transition t.dbg (eval t e) with
      | exception Predicate.Eval_error msg ->
          Fmt.pf ppf "error: %s@." msg;
          `Err
      | None ->
          Fmt.pf ppf "no transition: %s has the same value at step 0 and step %d@."
            src (length t);
          `Ok
      | Some tr ->
          Fmt.pf ppf
            "transition: %s: %d -> %d at step %d (%d probes, %d steps)@." src
            tr.Debugger.tr_before tr.Debugger.tr_after tr.Debugger.tr_pos
            tr.Debugger.tr_probes (length t);
          move t ppf tr.Debugger.tr_pos;
          `Ok)
  | Command.Print (e, src) -> (
      match eval_at t t.pos e with
      | v ->
          Fmt.pf ppf "%s = %d@." src v;
          `Ok
      | exception Predicate.Eval_error msg ->
          Fmt.pf ppf "error: %s@." msg;
          `Err)
  | Command.Mem (addr_e, count) ->
      exec_mem t ppf addr_e count;
      `Ok
  | Command.Regs tid ->
      exec_regs t ppf (Option.value tid ~default:t.focus);
      `Ok
  | Command.Threads ->
      exec_threads t ppf;
      `Ok
  | Command.List n ->
      exec_list t ppf n;
      `Ok
  | Command.Assert (e, src) -> (
      t.asserts_run <- t.asserts_run + 1;
      match eval_at t t.pos e with
      | v when v <> 0 ->
          Fmt.pf ppf "assert %s: PASS@." src;
          `Ok
      | v ->
          t.asserts_failed <- t.asserts_failed + 1;
          Fmt.pf ppf "assert %s: FAIL (= %d)@." src v;
          `Ok
      | exception Predicate.Eval_error msg ->
          t.asserts_failed <- t.asserts_failed + 1;
          Fmt.pf ppf "assert %s: FAIL (%s)@." src msg;
          `Ok)

(** Parse and execute one line. *)
let exec_line t ppf line : outcome =
  match Command.parse line with
  | Ok cmd -> exec_cmd t ppf cmd
  | Error msg ->
      Fmt.pf ppf "error: %s@." msg;
      `Err
