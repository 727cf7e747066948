(** Activation frames.

    A frame is a position in a function plus its register file.  Registers
    are zero-initialized; parameters are bound into registers [0..n-1] at
    call time.  [ret_reg] names the register {e in the caller's frame} that
    receives this activation's return value. *)

module IMap = Map.Make (Int)

type t = {
  func : string;
  block : Res_ir.Instr.label;
  idx : int;  (** next instruction index; [= Block.length] means terminator *)
  regs : int IMap.t;
  ret_reg : Res_ir.Instr.reg option;
}

(** Fresh frame at the entry of [f] with [args] bound to parameters. *)
let enter (f : Res_ir.Func.t) ~args ~ret_reg =
  if List.length args <> List.length f.params then
    invalid_arg
      (Fmt.str "Frame.enter: %s expects %d args, given %d" f.name
         (List.length f.params) (List.length args));
  let regs =
    List.fold_left2
      (fun m p a -> IMap.add p a m)
      IMap.empty f.params args
  in
  { func = f.name; block = f.entry; idx = 0; regs; ret_reg }

(** [read_reg fr r] is the value of [r] (0 if never written). *)
let read_reg fr r = match IMap.find_opt r fr.regs with Some v -> v | None -> 0

let write_reg fr r v = { fr with regs = IMap.add r v fr.regs }

let pc fr = Res_ir.Pc.v ~func:fr.func ~block:fr.block ~idx:fr.idx

(** Jump to the start of [label] in the same function. *)
let goto fr label = { fr with block = label; idx = 0 }

let advance fr = { fr with idx = fr.idx + 1 }

(** Register bindings, ascending by register index. *)
let reg_bindings fr = IMap.bindings fr.regs

let pp ppf fr =
  let pp_binding ppf (r, v) = Fmt.pf ppf "r%d=%d" r v in
  Fmt.pf ppf "%a {%a}" Res_ir.Pc.pp (pc fr)
    Fmt.(list ~sep:sp pp_binding)
    (reg_bindings fr)

(** Register files are equal under read semantics: an absent register reads
    as 0, so [{r0=1}] and [{r0=1, r3=0}] are the same register file.  Equal
    bindings, the usual case, are decided without a lookup per register. *)
let regs_equal a b =
  IMap.equal Int.equal a.regs b.regs
  || IMap.for_all (fun r v -> v = read_reg b r) a.regs
     && IMap.for_all (fun r v -> v = read_reg a r) b.regs

let equal (a : t) (b : t) =
  String.equal a.func b.func
  && String.equal a.block b.block
  && a.idx = b.idx && a.ret_reg = b.ret_reg && regs_equal a b
