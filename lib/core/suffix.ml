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

(** [add_header b ~count ~steps] appends the header line of a suffix of
    [count] segments executing [steps] instructions. *)
let add_header b ~count ~steps =
  Printf.bprintf b "suffix (%d segments, %d instrs):\n" count steps

(** [add b t] appends a header line, then one line per segment, to [b],
    without a final newline. *)
let add b t =
  add_header b ~count:(length t) ~steps:(length_steps t);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b '\n';
      add_segment b s)
    t.segments

module ISet = Set.Make (Int)

(** A segment list as a report prints it, built from its tail's.  Suffix
    k + 1's [segments] is a new segment consed onto suffix k's list, so a
    table of tails (one per render call) formats each distinct segment,
    address set and address once, however many suffixes share them. *)
type tail = {
  count : int;  (** segments in the list *)
  steps : int;  (** instructions the list executes *)
  inputs : Expr.sym list;  (** input symbols consumed, in order *)
  writes : set;  (** the list's write set *)
  reads : set;  (** the list's read set *)
  lines : joined;  (** one line per segment, from {!add_segment} *)
  tids : joined;  (** the schedule: one thread id per segment *)
  rest : tail;
      (** the list without its oldest segment; the empty list's is itself *)
}

(** An address set, and its text: the addresses described and
    [",\n"]-joined. *)
and set = { addrs : ISet.t; text : string Lazy.t }

(** A text along a segment list: [piece] for the oldest segment, then its
    tail's text.  Once written, it is the part of [whole] from [from] on,
    which it shares with every longer list written before it. *)
and joined = { piece : string; mutable whole : string; mutable from : int }

type tails = {
  describe : int -> string;  (** an address's text *)
  nil : tail;  (** the empty list *)
  table : (int, (segment list * tail) list) Hashtbl.t;
      (** tails met so far, by length; a list is found by physical
          equality *)
}

(** [tails ~describe] is an empty table whose set texts describe each
    address with [describe], at most once per address. *)
let tails ~describe =
  let texts = Hashtbl.create 64 in
  let describe a =
    match Hashtbl.find_opt texts a with
    | Some s -> s
    | None ->
        let s = describe a in
        Hashtbl.add texts a s;
        s
  in
  let empty = { addrs = ISet.empty; text = lazy "" } in
  let rec nil =
    {
      count = 0;
      steps = 0;
      inputs = [];
      writes = empty;
      reads = empty;
      lines = { piece = ""; whole = ""; from = 0 };
      tids = { piece = ""; whole = ""; from = 0 };
      rest = nil;
    }
  in
  { describe; nil; table = Hashtbl.create 64 }

let extend tails s rest =
  let union base new_addrs =
    let addrs = List.fold_left (fun set a -> ISet.add a set) base.addrs new_addrs in
    (* [ISet.add] returns its argument when nothing is new *)
    if addrs == base.addrs then base
    else
      let text =
        lazy (ISet.elements addrs |> List.map tails.describe |> String.concat ",\n")
      in
      { addrs; text }
  in
  let joined piece = { piece; whole = ""; from = -1 } in
  let line = Buffer.create 32 in
  add_segment line s;
  {
    count = rest.count + 1;
    steps = rest.steps + s.seg_steps;
    inputs = List.map snd s.seg_inputs @ rest.inputs;
    writes = union rest.writes s.seg_writes;
    reads = union rest.reads s.seg_reads;
    lines = joined (Buffer.contents line);
    tids = joined (string_of_int s.seg_tid);
    rest;
  }

(** [tail tails t] is [t]'s segment list as a {!tail}.  Only the segments
    in front of the longest tail met before are formatted. *)
let tail tails t =
  let rec find n = function
    | [] -> tails.nil
    | s :: rest as l -> (
        let bucket = Option.value (Hashtbl.find_opt tails.table n) ~default:[] in
        match List.assq_opt l bucket with
        | Some e -> e
        | None ->
            let e = extend tails s (find (n - 1) rest) in
            Hashtbl.replace tails.table n ((l, e) :: bucket);
            e)
  in
  find (length t) t.segments

(** [add_joined b ~sep text e] appends the [text] of [e], its pieces
    separated by [sep].  The pieces in front of the longest tail whose
    text was written before are appended one by one, and that tail's text
    in one copy; what was appended then holds the text of [e] and of each
    tail appended piece by piece. *)
let add_joined b ~sep text e =
  let start = Buffer.length b in
  let rec go fresh e =
    let j = text e in
    if j.from >= 0 then (
      Buffer.add_substring b j.whole j.from (String.length j.whole - j.from);
      fresh)
    else
      let from = Buffer.length b - start in
      Buffer.add_string b j.piece;
      if e.rest.count > 0 then Buffer.add_string b sep;
      go ((j, from) :: fresh) e.rest
  in
  match go [] e with
  | [] -> ()
  | fresh ->
      let whole = Buffer.sub b start (Buffer.length b - start) in
      List.iter
        (fun (j, from) ->
          j.whole <- whole;
          j.from <- from)
        fresh

let pp ppf t =
  let b = Buffer.create 256 in
  add b t;
  Fmt.string ppf (Buffer.contents b)
