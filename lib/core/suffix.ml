(** Execution suffixes — RES's output (paper §2.1).

    A suffix is an ordered list of {e segments} (one root-function block of
    one thread, calls inlined), together with the symbolic snapshot of the
    state just before the suffix, a model that concretizes it into the
    partial memory image [Mi], the thread schedule, and the input values —
    everything needed to replay the suffix deterministically in the
    debugger. *)

open Res_solver

(** How a segment terminates. *)
type segment_end =
  | Seg_branch of Res_ir.Instr.label  (** branched to this block *)
  | Seg_ret  (** the root frame returned: the thread halted *)
  | Seg_halt
  | Seg_crash of Res_vm.Crash.kind  (** the final, crashing segment *)
  | Seg_blocked  (** partial segment of a thread blocked at crash time *)

(** One backward-synthesized segment. *)
type segment = {
  seg_tid : int;
  seg_func : string;
  seg_block : Res_ir.Instr.label;
  seg_end : segment_end;
  seg_writes : int list;  (** memory addresses written (write set) *)
  seg_reads : int list;  (** addresses read before written (read set) *)
  seg_inputs : (Res_ir.Instr.input_kind * Expr.sym) list;
      (** input symbols consumed, in order *)
  seg_lock_ops : (bool * int) list;
  seg_allocs : int list;  (** bases allocated *)
  seg_spawns : int list;  (** tids whose birth lies in this segment *)
  seg_frees : int list;
  seg_steps : int;  (** instructions executed, for cost accounting *)
}

type t = {
  segments : segment list;  (** oldest first: executing them in order crashes *)
  snapshot : Snapshot.t;  (** state just before [segments] — yields [Mi] *)
  model : Model.t;  (** solves the snapshot's constraint store *)
  crash : Res_vm.Crash.t;  (** the failure this suffix reproduces *)
  complete : bool;
      (** the suffix reaches the program start: a full start-to-finish
          reconstruction (paper §2.1: its existence rules out a hardware
          fault) *)
}

(** Thread schedule of the suffix: one tid per segment, oldest first —
    exactly the tids a [Sched.Fixed] replay consumes. *)
let schedule t = List.map (fun s -> s.seg_tid) t.segments

(** Concrete input script: the model's value for every input symbol, in
    consumption order across the whole suffix. *)
let input_script t =
  List.concat_map
    (fun s -> List.map (fun (_, sym) -> Model.value t.model sym) s.seg_inputs)
    t.segments

(** Aggregate write set — "the recently written state", which RES points
    developers at first (paper §3.3). *)
let write_set t =
  List.concat_map (fun s -> s.seg_writes) t.segments |> List.sort_uniq compare

(** Aggregate read set. *)
let read_set t =
  List.concat_map (fun s -> s.seg_reads) t.segments |> List.sort_uniq compare

(** Total instructions the suffix executes. *)
let length_steps t = List.fold_left (fun a s -> a + s.seg_steps) 0 t.segments

(** Number of segments (block-granularity length). *)
let length t = List.length t.segments

(** [add_segment b s] appends the line of one segment to [b], without a
    newline.  A deadlock's tids are separated by [",\n"]. *)
let add_segment b s =
  Buffer.add_char b 't';
  Buffer.add_string b (string_of_int s.seg_tid);
  Buffer.add_char b ' ';
  Buffer.add_string b s.seg_func;
  Buffer.add_char b ':';
  Buffer.add_string b s.seg_block;
  Buffer.add_string b " -> ";
  match s.seg_end with
  | Seg_branch l -> Buffer.add_string b l
  | Seg_ret -> Buffer.add_string b "ret"
  | Seg_halt -> Buffer.add_string b "halt"
  | Seg_crash k ->
      Buffer.add_string b "CRASH (";
      Res_vm.Crash.add_kind ~sep:",\n" b k;
      Buffer.add_char b ')'
  | Seg_blocked -> Buffer.add_string b "blocked"

(** [add b t] appends a header line, then one line per segment, to [b],
    without a final newline. *)
let add b t =
  Printf.bprintf b "suffix (%d segments, %d instrs):\n" (length t)
    (length_steps t);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b '\n';
      add_segment b s)
    t.segments

let pp ppf t =
  let b = Buffer.create 256 in
  add b t;
  Fmt.string ppf (Buffer.contents b)
