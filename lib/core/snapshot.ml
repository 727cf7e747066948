(** Symbolic snapshots (paper §2.3).

    A snapshot is a "hypothesis of how program state may have looked" at a
    point in time: a mix of concrete values (from the coredump) and
    symbolic values (for state the backward analysis has havocked), plus
    the constraint store that ties the symbols to the post-state.  The base
    case is the coredump itself — fully concrete. *)

module IMap = Map.Make (Int)
open Res_solver

(** Per-thread view: the frame stack (registers are expressions) and the
    thread's status.  Threads whose last segment has not yet been stepped
    backward keep their coredump stack; once stepped, they sit at the start
    of a root-function block. *)
type thread_state = {
  ts_tid : int;
  ts_frames : Res_symex.Symframe.t list;  (** innermost first *)
  ts_status : Res_vm.Thread.status;
  ts_stepped : bool;
      (** whether the backward walk has already consumed the thread's
          in-progress segment (always true once it sits at a block start) *)
}

type t = {
  mem_base : Res_mem.Memory.t;  (** the coredump memory *)
  mem_over : Expr.t IMap.t;  (** symbolic overrides introduced going back *)
  heap : Res_mem.Heap.t;  (** heap metadata at this point in time *)
  threads : thread_state IMap.t;
  constraints : Expr.t list;  (** accumulated, newest first *)
}

(** Convert a concrete VM frame to a symbolic one. *)
let symframe_of_vm (fr : Res_vm.Frame.t) =
  {
    Res_symex.Symframe.func = fr.func;
    block = fr.block;
    idx = fr.idx;
    regs =
      List.fold_left
        (fun m (r, v) -> IMap.add r (Expr.const v) m)
        IMap.empty
        (Res_vm.Frame.reg_bindings fr);
    ret_reg = fr.ret_reg;
    lazy_pre = false;
  }

(** The base case: a snapshot that {e is} the coredump. *)
let of_coredump (dump : Res_vm.Coredump.t) =
  let threads =
    List.fold_left
      (fun m (th : Res_vm.Thread.t) ->
        IMap.add th.tid
          {
            ts_tid = th.tid;
            ts_frames = List.map symframe_of_vm th.frames;
            ts_status = th.status;
            ts_stepped = false;
          }
          m)
      IMap.empty
      (Res_vm.Coredump.threads dump)
  in
  {
    mem_base = dump.Res_vm.Coredump.mem;
    mem_over = IMap.empty;
    heap = dump.Res_vm.Coredump.heap;
    threads;
    constraints = [];
  }

(** Value of memory word [addr] in this snapshot: a symbolic override if
    the backward walk havocked it, else the coredump's concrete value. *)
let read_mem t addr =
  match IMap.find_opt addr t.mem_over with
  | Some e -> e
  | None -> Expr.const (Res_mem.Memory.read t.mem_base addr)

let write_mem_over t addr e = { t with mem_over = IMap.add addr e t.mem_over }

let thread t tid =
  match IMap.find_opt tid t.threads with
  | Some ts -> ts
  | None -> invalid_arg (Fmt.str "Snapshot.thread: no thread %d" tid)

let threads t = IMap.bindings t.threads |> List.map snd

let with_thread t ts = { t with threads = IMap.add ts.ts_tid ts t.threads }

let add_constraints t cs = { t with constraints = cs @ t.constraints }

(** Number of symbolic memory cells — a measure of how much state the walk
    has havocked so far. *)
let symbolic_cells t = IMap.cardinal t.mem_over

(** Addresses currently holding symbolic values. *)
let symbolic_addrs t = IMap.bindings t.mem_over |> List.map fst

(** Concretize the snapshot under a model into a directly runnable memory
    image — the paper's partial memory image [Mi]. *)
let concrete_mem t model =
  IMap.fold
    (fun addr e mem ->
      match Model.eval model e with
      | v -> Res_mem.Memory.write mem addr v
      | exception Division_by_zero -> mem)
    t.mem_over t.mem_base

(** Concretize a thread's frames under a model into VM frames. *)
let concrete_frames ts model =
  List.map
    (fun (fr : Res_symex.Symframe.t) ->
      let regs =
        List.fold_left
          (fun m (r, e) ->
            match Model.eval model e with
            | v -> IMap.add r v m
            | exception Division_by_zero -> m)
          IMap.empty
          (Res_symex.Symframe.reg_bindings fr)
      in
      {
        Res_vm.Frame.func = fr.Res_symex.Symframe.func;
        block = fr.block;
        idx = fr.idx;
        regs;
        ret_reg = fr.ret_reg;
      })
    ts.ts_frames

(** The minidump ablation (paper §1: "Unlike execution synthesis, RES
    interprets the entire coredump, not just a minidump, which makes RES
    strictly more powerful").  A minidump ships only the crash record and
    thread stacks — memory contents are unknown.  Model that by making
    every mapped memory word symbolic from the start: the backward walk
    then has no concrete values to refute candidate predecessors with. *)
let of_minidump (dump : Res_vm.Coredump.t) ~(layout : Res_mem.Layout.t) =
  let t = of_coredump dump in
  (* stack positions survive, register contents do not *)
  let t =
    {
      t with
      threads =
        IMap.map
          (fun ts ->
            {
              ts with
              ts_frames =
                List.map
                  (fun (fr : Res_symex.Symframe.t) ->
                    {
                      fr with
                      Res_symex.Symframe.regs =
                        IMap.mapi
                          (fun r _ ->
                            Expr.fresh (Fmt.str "mini:t%d:r%d" ts.ts_tid r))
                          fr.Res_symex.Symframe.regs;
                    })
                  ts.ts_frames;
            })
          t.threads;
    }
  in
  let global_words =
    List.concat_map
      (fun (base, size, _) -> List.init size (fun i -> base + i))
      layout.Res_mem.Layout.names
  in
  let heap_words =
    List.concat_map
      (fun (b : Res_mem.Heap.block) ->
        List.init b.Res_mem.Heap.size (fun i -> b.Res_mem.Heap.base + i))
      (Res_mem.Heap.blocks dump.Res_vm.Coredump.heap)
  in
  List.fold_left
    (fun t addr ->
      write_mem_over t addr (Expr.fresh (Fmt.str "mini:mem[0x%x]" addr)))
    t (global_words @ heap_words)
