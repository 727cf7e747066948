(** Basic blocks: a label, straight-line instructions, and one terminator. *)

type t = {
  label : Instr.label;
  instrs : Instr.instr array;
  term : Instr.terminator;
  defined : Instr.reg list;
      (** registers written by some instruction, ascending, once each *)
  used : Instr.reg list;
      (** registers read by some instruction or the terminator, ascending,
          once each *)
}

(** [v label instrs term] builds a block and its register sets, which
    depend only on the code: every backward step reads them. *)
let v label instrs term =
  let instrs = Array.of_list instrs in
  let defined =
    Array.fold_left
      (fun acc i -> match Instr.defs i with Some r -> r :: acc | None -> acc)
      [] instrs
    |> List.sort_uniq Int.compare
  in
  let used =
    Array.fold_left
      (fun acc i -> List.rev_append (Instr.uses i) acc)
      (Instr.term_uses term) instrs
    |> List.sort_uniq Int.compare
  in
  { label; instrs; term; defined; used }

(** Number of straight-line instructions (terminator excluded). *)
let length b = Array.length b.instrs

(** [instr b i] is the [i]-th instruction.  @raise Invalid_argument if out
    of range. *)
let instr b i =
  if i < 0 || i >= Array.length b.instrs then
    invalid_arg
      (Fmt.str "Block.instr: index %d out of range for block %s" i b.label)
  else b.instrs.(i)

(** Registers written anywhere in the block (terminators never write),
    ascending. *)
let defined_regs b = b.defined

(** Registers read anywhere in the block, including by the terminator,
    ascending. *)
let used_regs b = b.used

(** Registers whose value at block entry is observable: read at some point
    before being (re)defined within the block.  These are the registers the
    backward analysis must constrain against the pre-state. *)
let live_in_regs b =
  let defined = Hashtbl.create 8 in
  let live = ref [] in
  let see r = if not (Hashtbl.mem defined r) then live := r :: !live in
  Array.iter
    (fun i ->
      List.iter see (Instr.uses i);
      match Instr.defs i with
      | Some r -> Hashtbl.replace defined r ()
      | None -> ())
    b.instrs;
  List.iter see (Instr.term_uses b.term);
  List.sort_uniq compare !live

(** Intra-function successor labels. *)
let successors b = Instr.term_targets b.term

(** [add buf b] appends the block's text: its label line, then each
    instruction and the terminator on a line of its own, indented by two
    spaces.  No trailing newline. *)
let add buf b =
  Buffer.add_string buf b.label;
  Buffer.add_char buf ':';
  Array.iter
    (fun i ->
      Buffer.add_string buf "\n  ";
      Instr.add_instr buf i)
    b.instrs;
  Buffer.add_string buf "\n  ";
  Instr.add_terminator buf b.term

let pp = Instr.pp_of add

let equal a b =
  String.equal a.label b.label
  && Array.length a.instrs = Array.length b.instrs
  && Array.for_all2 Instr.equal_instr a.instrs b.instrs
  && Instr.equal_terminator a.term b.term
