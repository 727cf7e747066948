(** The MiniIR program printer as it was before the one-buffer writer:
    [Format] vertical boxes over [Fmt] printers for instructions,
    blocks, functions and programs.  It is the reference the printer
    differential tests compare {!Res_ir.Prog.to_string} against: both
    must write the same bytes for every program, because cache keys hash
    that text. *)

open Res_ir
open Instr

let pp_reg ppf r = Fmt.pf ppf "r%d" r

let pp_instr ppf = function
  | Const (r, n) -> Fmt.pf ppf "%a = const %d" pp_reg r n
  | Mov (r, a) -> Fmt.pf ppf "%a = mov %a" pp_reg r pp_reg a
  | Binop (op, r, a, b) ->
      Fmt.pf ppf "%a = %s %a, %a" pp_reg r (binop_name op) pp_reg a pp_reg b
  | Unop (op, r, a) -> Fmt.pf ppf "%a = %s %a" pp_reg r (unop_name op) pp_reg a
  | Load (r, a, off) -> Fmt.pf ppf "%a = load %a[%d]" pp_reg r pp_reg a off
  | Store (a, off, s) -> Fmt.pf ppf "store %a[%d] = %a" pp_reg a off pp_reg s
  | Global_addr (r, g) -> Fmt.pf ppf "%a = global %s" pp_reg r g
  | Alloc (r, s) -> Fmt.pf ppf "%a = alloc %a" pp_reg r pp_reg s
  | Free a -> Fmt.pf ppf "free %a" pp_reg a
  | Input (r, k) -> Fmt.pf ppf "%a = input %s" pp_reg r (input_kind_name k)
  | Lock a -> Fmt.pf ppf "lock %a" pp_reg a
  | Unlock a -> Fmt.pf ppf "unlock %a" pp_reg a
  | Spawn (r, f, args) ->
      Fmt.pf ppf "%a = spawn %s(%a)" pp_reg r f
        Fmt.(list ~sep:(any ", ") pp_reg)
        args
  | Join a -> Fmt.pf ppf "join %a" pp_reg a
  | Call (Some r, f, args) ->
      Fmt.pf ppf "%a = call %s(%a)" pp_reg r f
        Fmt.(list ~sep:(any ", ") pp_reg)
        args
  | Call (None, f, args) ->
      Fmt.pf ppf "call %s(%a)" f Fmt.(list ~sep:(any ", ") pp_reg) args
  | Assert (r, msg) -> Fmt.pf ppf "assert %a, %S" pp_reg r msg
  | Log (tag, r) -> Fmt.pf ppf "log %S, %a" tag pp_reg r
  | Nop -> Fmt.string ppf "nop"

let pp_terminator ppf = function
  | Jmp l -> Fmt.pf ppf "jmp %s" l
  | Br (r, l1, l2) -> Fmt.pf ppf "br %a, %s, %s" pp_reg r l1 l2
  | Ret (Some r) -> Fmt.pf ppf "ret %a" pp_reg r
  | Ret None -> Fmt.string ppf "ret"
  | Halt -> Fmt.string ppf "halt"
  | Abort msg -> Fmt.pf ppf "abort %S" msg

let pp_block ppf (b : Block.t) =
  let pp_body ppf (b : Block.t) =
    Array.iter (fun i -> Fmt.pf ppf "%a@," pp_instr i) b.instrs;
    pp_terminator ppf b.term
  in
  Fmt.pf ppf "@[<v>%s:@;<0 2>@[<v>%a@]@]" b.label pp_body b

let pp_func ppf (f : Func.t) =
  Fmt.pf ppf "@[<v>func %s(%a) {@;<0 0>%a@;<0 0>}@]" f.name
    Fmt.(list ~sep:(any ", ") pp_reg)
    f.params
    Fmt.(list ~sep:cut pp_block)
    f.blocks

let pp ppf (p : Prog.t) =
  let pp_global ppf (g : Prog.global) =
    Fmt.pf ppf "global %s %d" g.gname g.gsize
  in
  Fmt.pf ppf "@[<v>%a%a%a@]"
    Fmt.(list ~sep:cut pp_global)
    p.globals
    Fmt.(if p.globals = [] then nop else cut)
    ()
    Fmt.(list ~sep:(cut ++ cut) pp_func)
    p.funcs

let to_string p = Fmt.str "%a@." pp p
