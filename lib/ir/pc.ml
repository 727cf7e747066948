(** Program counters.

    A PC designates a function, a block, and an instruction index within the
    block.  Index [Block.length b] designates the terminator — the paper's
    "program counter found in the coredump" maps to this triple. *)

type t = { func : string; block : Instr.label; idx : int }

let v ~func ~block ~idx = { func; block; idx }
let entry_of (f : Func.t) = { func = f.name; block = f.entry; idx = 0 }

let equal a b =
  String.equal a.func b.func && String.equal a.block b.block && a.idx = b.idx

let compare a b =
  match String.compare a.func b.func with
  | 0 -> (
      match String.compare a.block b.block with
      | 0 -> Int.compare a.idx b.idx
      | c -> c)
  | c -> c

(** [at_terminator prog pc] is true when [pc] points at the terminator. *)
let at_terminator prog pc =
  let b = Prog.block prog ~func:pc.func ~label:pc.block in
  pc.idx >= Block.length b

(** Current instruction, or [None] when the PC is at the terminator. *)
let instr prog pc =
  let b = Prog.block prog ~func:pc.func ~label:pc.block in
  if pc.idx < Block.length b then Some (Block.instr b pc.idx) else None

let next pc = { pc with idx = pc.idx + 1 }
let block_start pc = { pc with idx = 0 }

let to_string pc = pc.func ^ ":" ^ pc.block ^ ":" ^ string_of_int pc.idx
let pp ppf pc = Fmt.string ppf (to_string pc)
