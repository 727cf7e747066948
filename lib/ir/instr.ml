(** MiniIR instruction set.

    MiniIR is a small register-machine intermediate representation standing
    in for LLVM bitcode (see DESIGN.md).  Programs are made of functions,
    functions of basic blocks, and blocks of straight-line instructions
    closed by a single terminator.  Registers are function-local virtual
    registers identified by small integers; memory is a flat word-addressed
    space shared by all threads. *)

(** A virtual register, local to a function activation. *)
type reg = int

(** A basic-block label, unique within its function. *)
type label = string

(** Binary operators.  Comparison operators produce 1 (true) or 0 (false).
    [Div] and [Rem] trap on a zero divisor (the VM raises a crash). *)
type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

(** Unary operators.  [Not] is logical negation (zero test). *)
type unop = Not | Neg

(** Sources of external input.  Inputs are the only nondeterminism apart
    from scheduling; reverse execution synthesis treats values read from
    these sources as unconstrained symbolic values. *)
type input_kind = Net | File | Time | Rand

(** Straight-line instructions. *)
type instr =
  | Const of reg * int  (** [dst = const n] *)
  | Mov of reg * reg  (** [dst = mov src] *)
  | Binop of binop * reg * reg * reg  (** [dst = op a, b] *)
  | Unop of unop * reg * reg  (** [dst = op a] *)
  | Load of reg * reg * int  (** [dst = load addr\[off\]] *)
  | Store of reg * int * reg  (** [store addr\[off\] = src] *)
  | Global_addr of reg * string  (** [dst = global g]: address of global *)
  | Alloc of reg * reg  (** [dst = alloc size]: heap allocation *)
  | Free of reg  (** [free addr] *)
  | Input of reg * input_kind  (** [dst = input net|file|time|rand] *)
  | Lock of reg  (** acquire the mutex at address [r] (blocking) *)
  | Unlock of reg  (** release the mutex at address [r] *)
  | Spawn of reg * string * reg list
      (** [dst = spawn f(args)]: start a thread, [dst] receives its id *)
  | Join of reg  (** block until thread [r] halts *)
  | Call of reg option * string * reg list  (** [dst = call f(args)] *)
  | Assert of reg * string  (** crash with the message if [r] is zero *)
  | Log of string * reg  (** append a breadcrumb to the error log *)
  | Nop

(** Block terminators. *)
type terminator =
  | Jmp of label  (** unconditional branch *)
  | Br of reg * label * label  (** [br r, if_nonzero, if_zero] *)
  | Ret of reg option  (** return from the current function *)
  | Halt  (** terminate the current thread normally *)
  | Abort of string  (** crash the program with a message *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let binop_of_name = function
  | "add" -> Some Add
  | "sub" -> Some Sub
  | "mul" -> Some Mul
  | "div" -> Some Div
  | "rem" -> Some Rem
  | "and" -> Some And
  | "or" -> Some Or
  | "xor" -> Some Xor
  | "shl" -> Some Shl
  | "shr" -> Some Shr
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | "lt" -> Some Lt
  | "le" -> Some Le
  | "gt" -> Some Gt
  | "ge" -> Some Ge
  | _ -> None

let unop_name = function Not -> "not" | Neg -> "neg"

let unop_of_name = function
  | "not" -> Some Not
  | "neg" -> Some Neg
  | _ -> None

let input_kind_name = function
  | Net -> "net"
  | File -> "file"
  | Time -> "time"
  | Rand -> "rand"

let input_kind_of_name = function
  | "net" -> Some Net
  | "file" -> Some File
  | "time" -> Some Time
  | "rand" -> Some Rand
  | _ -> None

(** [eval_binop op a b] is the concrete semantics of [op].  Division and
    remainder by zero raise [Division_by_zero]; the VM converts this into a
    crash.  Comparisons return 0/1.  Shifts are masked to the word size. *)
let eval_binop op a b =
  let bool b = if b then 1 else 0 in
  (* Shift counts are taken modulo 64 and clamped to the valid OCaml range;
     a count >= the word size yields 0 / the sign word, like a real ALU. *)
  let mask_shift n = min (n land 63) 62 in
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> a / b
  | Rem -> a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl mask_shift b
  | Shr -> a asr mask_shift b
  | Eq -> bool (a = b)
  | Ne -> bool (a <> b)
  | Lt -> bool (a < b)
  | Le -> bool (a <= b)
  | Gt -> bool (a > b)
  | Ge -> bool (a >= b)

(** Concrete semantics of unary operators. *)
let eval_unop op a = match op with Not -> (if a = 0 then 1 else 0) | Neg -> -a

(** [defs i] is the register defined (written) by [i], if any. *)
let defs = function
  | Const (r, _)
  | Mov (r, _)
  | Binop (_, r, _, _)
  | Unop (_, r, _)
  | Load (r, _, _)
  | Global_addr (r, _)
  | Alloc (r, _)
  | Input (r, _)
  | Spawn (r, _, _) ->
      Some r
  | Call (r, _, _) -> r
  | Store _ | Free _ | Lock _ | Unlock _ | Join _ | Assert _ | Log _ | Nop ->
      None

(** [uses i] are the registers read by [i], in operand order. *)
let uses = function
  | Const _ | Global_addr _ | Nop -> []
  | Mov (_, a) | Unop (_, _, a) | Load (_, a, _) | Alloc (_, a) -> [ a ]
  | Binop (_, _, a, b) -> [ a; b ]
  | Store (a, _, s) -> [ a; s ]
  | Free a | Lock a | Unlock a | Join a | Assert (a, _) | Log (_, a) -> [ a ]
  | Input _ -> []
  | Spawn (_, _, args) -> args
  | Call (_, _, args) -> args

(** [term_uses t] are the registers read by terminator [t]. *)
let term_uses = function
  | Jmp _ | Halt | Abort _ -> []
  | Br (r, _, _) -> [ r ]
  | Ret (Some r) -> [ r ]
  | Ret None -> []

(** [term_targets t] are the intra-function successor labels of [t]. *)
let term_targets = function
  | Jmp l -> [ l ]
  | Br (_, l1, l2) -> if String.equal l1 l2 then [ l1 ] else [ l1; l2 ]
  | Ret _ | Halt | Abort _ -> []

(** One memory access an instruction performs through an address register:
    the cell at [acc_addr + acc_off] is read ([acc_write = false]) or
    written.  [Lock]/[Unlock] both read and write their mutex cell (the VM
    stores the owner's tid there), so they contribute two accesses.  The
    static-analysis layer ({!Res_static}) builds its mod/ref summaries from
    this classification instead of re-matching constructors. *)
type access = { acc_addr : reg; acc_off : int; acc_write : bool }

(** [accesses i] are the memory accesses [i] performs, in operand order.
    Heap management ([Alloc]/[Free]) is not an access. *)
let accesses = function
  | Load (_, a, off) -> [ { acc_addr = a; acc_off = off; acc_write = false } ]
  | Store (a, off, _) -> [ { acc_addr = a; acc_off = off; acc_write = true } ]
  | Lock a | Unlock a ->
      [
        { acc_addr = a; acc_off = 0; acc_write = false };
        { acc_addr = a; acc_off = 0; acc_write = true };
      ]
  | Const _ | Mov _ | Binop _ | Unop _ | Global_addr _ | Alloc _ | Free _
  | Input _ | Spawn _ | Join _ | Call _ | Assert _ | Log _ | Nop ->
      []

let equal_instr (a : instr) (b : instr) = a = b
let equal_terminator (a : terminator) (b : terminator) = a = b

let pp_reg ppf r = Fmt.pf ppf "r%d" r

let pp ppf = function
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

