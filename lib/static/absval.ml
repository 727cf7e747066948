(** Constant/pointer abstract values and the intra-function forward
    dataflow they support.

    The lattice is deliberately flat: an abstract register value is either
    a known integer, a known offset into a named global, or [Top].  That
    is exactly enough to resolve the address operands MiniIR programs
    compute (a [global] followed by constant arithmetic) into {e cells} —
    [(global, offset)] pairs — which is what the mod/ref summaries
    ({!Summary}) need.  There is no [Bot]: a register never written
    reads as [Top] here, which only ever makes analyses {e less} willing
    to claim a fact (accesses through unresolved addresses are dropped,
    never misattributed). *)

module IMap = Map.Make (Int)
module SMap = Map.Make (String)

type t =
  | Top  (** statically unknown *)
  | Int of int  (** the register holds exactly this integer *)
  | GPtr of string * int  (** address of a global, plus a constant offset *)

let equal a b =
  match (a, b) with
  | Top, Top -> true
  | Int x, Int y -> x = y
  | GPtr (g, o), GPtr (h, p) -> String.equal g h && o = p
  | _, _ -> false

let join a b = if equal a b then a else Top

(** An abstract register file.  Registers absent from the map are [Top]. *)
type env = t IMap.t

let read (env : env) r = Option.value ~default:Top (IMap.find_opt r env)

let join_env (a : env) (b : env) : env =
  IMap.merge
    (fun _ va vb ->
      match (va, vb) with Some x, Some y -> Some (join x y) | _ -> Some Top)
    a b

(** Abstract transfer of one straight-line instruction. *)
let transfer (env : env) (i : Res_ir.Instr.instr) : env =
  let open Res_ir.Instr in
  let set r v = IMap.add r v env in
  match i with
  | Const (r, n) -> set r (Int n)
  | Mov (r, a) -> set r (read env a)
  | Global_addr (r, g) -> set r (GPtr (g, 0))
  | Unop (op, r, a) -> (
      match read env a with
      | Int x -> set r (Int (eval_unop op x))
      | _ -> set r Top)
  | Binop (op, r, a, b) ->
      let v =
        match (op, read env a, read env b) with
        | _, Int x, Int y -> (
            try Int (eval_binop op x y) with Division_by_zero -> Top)
        | Add, GPtr (g, o), Int k | Add, Int k, GPtr (g, o) -> GPtr (g, o + k)
        | Sub, GPtr (g, o), Int k -> GPtr (g, o - k)
        | _ -> Top
      in
      set r v
  | Load _ | Alloc _ | Input _ | Spawn _ | Call _ -> (
      match defs i with Some r -> set r Top | None -> env)
  | Store _ | Free _ | Lock _ | Unlock _ | Join _ | Assert _ | Log _ | Nop ->
      env

(** The abstract value of [i]'s address operand, as a cell.  [None] when
    the instruction performs no access or its address is unresolved. *)
let cell_of_access env (acc : Res_ir.Instr.access) =
  match read env acc.Res_ir.Instr.acc_addr with
  | GPtr (g, o) -> Some (g, o + acc.Res_ir.Instr.acc_off)
  | Top | Int _ -> None

(** Block-entry environments of every block of [f], by fixpoint over the
    function's own successor edges, starting from [init] at the entry
    block.  Blocks unreachable from the entry are absent. *)
let block_envs (f : Res_ir.Func.t) ~(init : env) : env SMap.t =
  let out_of (b : Res_ir.Block.t) env =
    Array.fold_left transfer env b.Res_ir.Block.instrs
  in
  let envs = ref (SMap.singleton f.Res_ir.Func.entry init) in
  let work = Queue.create () in
  Queue.add f.Res_ir.Func.entry work;
  while not (Queue.is_empty work) do
    let label = Queue.pop work in
    match SMap.find_opt label !envs with
    | None -> ()
    | Some in_env ->
        let b = Res_ir.Func.block f label in
        let out = out_of b in_env in
        List.iter
          (fun succ ->
            let merged =
              match SMap.find_opt succ !envs with
              | None -> out
              | Some prev -> join_env prev out
            in
            let changed =
              match SMap.find_opt succ !envs with
              | None -> true
              | Some prev -> not (IMap.equal equal prev merged)
            in
            if changed then begin
              envs := SMap.add succ merged !envs;
              Queue.add succ work
            end)
          (Res_ir.Block.successors b)
  done;
  !envs
