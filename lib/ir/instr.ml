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

(* The text writer: every instruction appends its one line to a [Buffer]
   (no line break, no indentation; {!Block} adds those), so a program
   renders in one pass with no [Format] engine.  String operands are
   written as OCaml string literals ([String.escaped], as [%S] does),
   which is what {!Parser} reads back. *)

let add_int b n = Buffer.add_string b (string_of_int n)

let add_reg b r =
  Buffer.add_char b 'r';
  add_int b r

let add_regs b rs =
  List.iteri (fun i r -> if i > 0 then Buffer.add_string b ", "; add_reg b r) rs

let add_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

(* [r = kw ] *)
let add_def b r kw =
  add_reg b r;
  Buffer.add_string b " = ";
  Buffer.add_string b kw

(* [f(args)] *)
let add_call b f args =
  Buffer.add_string b f;
  Buffer.add_char b '(';
  add_regs b args;
  Buffer.add_char b ')'

(* [addr[off]] *)
let add_cell b a off =
  add_reg b a;
  Buffer.add_char b '[';
  add_int b off;
  Buffer.add_char b ']'

let add_instr b = function
  | Const (r, n) -> add_def b r "const "; add_int b n
  | Mov (r, a) -> add_def b r "mov "; add_reg b a
  | Binop (op, r, x, y) ->
      add_def b r (binop_name op); Buffer.add_char b ' '; add_reg b x;
      Buffer.add_string b ", "; add_reg b y
  | Unop (op, r, a) ->
      add_def b r (unop_name op); Buffer.add_char b ' '; add_reg b a
  | Load (r, a, off) -> add_def b r "load "; add_cell b a off
  | Store (a, off, s) ->
      Buffer.add_string b "store "; add_cell b a off;
      Buffer.add_string b " = "; add_reg b s
  | Global_addr (r, g) -> add_def b r "global "; Buffer.add_string b g
  | Alloc (r, s) -> add_def b r "alloc "; add_reg b s
  | Free a -> Buffer.add_string b "free "; add_reg b a
  | Input (r, k) -> add_def b r "input "; Buffer.add_string b (input_kind_name k)
  | Lock a -> Buffer.add_string b "lock "; add_reg b a
  | Unlock a -> Buffer.add_string b "unlock "; add_reg b a
  | Spawn (r, f, args) -> add_def b r "spawn "; add_call b f args
  | Join a -> Buffer.add_string b "join "; add_reg b a
  | Call (Some r, f, args) -> add_def b r "call "; add_call b f args
  | Call (None, f, args) -> Buffer.add_string b "call "; add_call b f args
  | Assert (r, msg) ->
      Buffer.add_string b "assert "; add_reg b r; Buffer.add_string b ", ";
      add_quoted b msg
  | Log (tag, r) ->
      Buffer.add_string b "log "; add_quoted b tag; Buffer.add_string b ", ";
      add_reg b r
  | Nop -> Buffer.add_string b "nop"

let add_terminator b = function
  | Jmp l -> Buffer.add_string b "jmp "; Buffer.add_string b l
  | Br (r, l1, l2) ->
      Buffer.add_string b "br "; add_reg b r; Buffer.add_string b ", ";
      Buffer.add_string b l1; Buffer.add_string b ", "; Buffer.add_string b l2
  | Ret (Some r) -> Buffer.add_string b "ret "; add_reg b r
  | Ret None -> Buffer.add_string b "ret"
  | Halt -> Buffer.add_string b "halt"
  | Abort msg -> Buffer.add_string b "abort "; add_quoted b msg

(** [pp_of add] prints through the text writer [add]: [Format] printing
    of instructions, blocks, functions and programs is a thin wrapper
    over their writers, so each has one printer. *)
let pp_of add ppf x =
  let b = Buffer.create 256 in
  add b x;
  Fmt.string ppf (Buffer.contents b)

let pp = pp_of add_instr
let pp_terminator = pp_of add_terminator
