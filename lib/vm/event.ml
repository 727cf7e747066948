(** Instruction-level trace events.

    A recorded trace is {e never} available to RES on production failures —
    it exists for (a) replaying synthesized suffixes, where the replayer
    produces it for the root-cause detectors, and (b) ground truth in tests
    and benchmarks. *)

type action =
  | A_exec  (** an instruction with no memory/sync side effect *)
  | A_read of { addr : int; value : int }
  | A_write of { addr : int; value : int; old : int }
  | A_alloc of { base : int; size : int }
  | A_free of { base : int }
  | A_lock of { addr : int }  (** successful acquisition *)
  | A_unlock of { addr : int }
  | A_spawn of { new_tid : int }
  | A_join of { joined : int }
  | A_input of { kind : Res_ir.Instr.input_kind; value : int }
  | A_branch of { from_label : string; to_label : string }
  | A_call of { callee : string }
  | A_ret
  | A_halt

type t = {
  step : int;  (** global step number *)
  tid : int;
  pc : Res_ir.Pc.t;
  action : action;
}

let pp_action ppf = function
  | A_exec -> Fmt.string ppf "exec"
  | A_read { addr; value } -> Fmt.pf ppf "read [0x%x]=%d" addr value
  | A_write { addr; value; old } ->
      Fmt.pf ppf "write [0x%x]=%d (was %d)" addr value old
  | A_alloc { base; size } -> Fmt.pf ppf "alloc 0x%x+%d" base size
  | A_free { base } -> Fmt.pf ppf "free 0x%x" base
  | A_lock { addr } -> Fmt.pf ppf "lock 0x%x" addr
  | A_unlock { addr } -> Fmt.pf ppf "unlock 0x%x" addr
  | A_spawn { new_tid } -> Fmt.pf ppf "spawn t%d" new_tid
  | A_join { joined } -> Fmt.pf ppf "join t%d" joined
  | A_input { kind; value } ->
      Fmt.pf ppf "input %s=%d" (Res_ir.Instr.input_kind_name kind) value
  | A_branch { from_label; to_label } ->
      Fmt.pf ppf "branch %s->%s" from_label to_label
  | A_call { callee } -> Fmt.pf ppf "call %s" callee
  | A_ret -> Fmt.string ppf "ret"
  | A_halt -> Fmt.string ppf "halt"

let pp ppf e =
  Fmt.pf ppf "#%d t%d %a: %a" e.step e.tid Res_ir.Pc.pp e.pc pp_action e.action

(** Memory address touched by the event, if any. *)
let touched_addr e =
  match e.action with
  | A_read { addr; _ } | A_write { addr; _ } -> Some addr
  | A_lock { addr } | A_unlock { addr } -> Some addr
  | _ -> None

let is_write e = match e.action with A_write _ -> true | _ -> false
