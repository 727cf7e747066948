(** Root-cause detectors.

    Run over a replayed suffix's instruction-level trace to classify {e why}
    the program failed — the basis for root-cause bug triaging (paper §3.1).
    Detectors are deliberately precise rather than heuristic: they see a
    deterministic trace, full heap metadata, and the crash record. *)

module IMap = Map.Make (Int)

type t =
  | Data_race of {
      addr : int;
      access1 : Res_ir.Pc.t * int * bool;  (** (pc, tid, is_write) *)
      access2 : Res_ir.Pc.t * int * bool;  (** conflicting access, >=1 write *)
    }
  | Atomicity_violation of {
      addr : int;
      read_pc : Res_ir.Pc.t;  (** t1 reads... *)
      intervening_pc : Res_ir.Pc.t;  (** ...t2 writes in between... *)
      write_pc : Res_ir.Pc.t;  (** ...t1 writes a stale-derived value *)
      tids : int * int;
    }
  | Use_after_free_cause of {
      addr : int;
      free_pc : Res_ir.Pc.t option;
      access_pc : Res_ir.Pc.t;
    }
  | Buffer_overflow_cause of { addr : int; store_pc : Res_ir.Pc.t; target : string }
  | Double_free_cause of {
      base : int;
      first_free_pc : Res_ir.Pc.t option;
      second_free_pc : Res_ir.Pc.t;
    }
  | Deadlock_cause of { waiting : (int * int) list }  (** (tid, lock addr) *)
  | Division_by_zero_cause of { pc : Res_ir.Pc.t }
  | Assertion_cause of { pc : Res_ir.Pc.t; message : string }
  | Abort_cause of { pc : Res_ir.Pc.t; message : string }
  | Unclassified of { family : string; pc : Res_ir.Pc.t }

(** Canonical signature — the triaging bucket key (paper §3.1).

    Concurrency causes are keyed by the racy address and the {e writer}
    program counter(s): suffixes of different lengths for the same bug can
    pair the racy write with different readers (a reader that joined later,
    the crashing assert, ...), but the unsynchronized write is the bug and
    is stable across them. *)
let signature = function
  | Data_race { addr; access1 = pc1, _, w1; access2 = pc2, _, w2 } ->
      let writers =
        List.filter_map
          (fun (pc, w) -> if w then Some (Res_ir.Pc.to_string pc) else None)
          [ (pc1, w1); (pc2, w2) ]
        |> List.sort_uniq compare
      in
      Fmt.str "concurrency:0x%x:%a" addr
        Fmt.(list ~sep:(any "+") string)
        writers
  | Atomicity_violation { addr; write_pc; _ } ->
      Fmt.str "concurrency:0x%x:%s" addr (Res_ir.Pc.to_string write_pc)
  | Use_after_free_cause { free_pc; access_pc; _ } ->
      (* Key on the premature free — the defect — not the (input-dependent)
         crash site. *)
      Fmt.str "uaf:%s"
        (match free_pc with
        | Some pc -> Res_ir.Pc.to_string pc
        | None -> Res_ir.Pc.to_string access_pc)
  | Buffer_overflow_cause { store_pc; _ } ->
      Fmt.str "overflow:%s" (Res_ir.Pc.to_string store_pc)
  | Double_free_cause { second_free_pc; _ } ->
      Fmt.str "double-free:%s" (Res_ir.Pc.to_string second_free_pc)
  | Deadlock_cause { waiting } ->
      Fmt.str "deadlock:%a"
        Fmt.(list ~sep:(any "+") (fun ppf (_, a) -> Fmt.pf ppf "0x%x" a))
        waiting
  | Division_by_zero_cause { pc } -> Fmt.str "div0:%s" (Res_ir.Pc.to_string pc)
  | Assertion_cause { pc; message } ->
      Fmt.str "assert:%s:%s" (Res_ir.Pc.to_string pc) message
  | Abort_cause { pc; message } ->
      Fmt.str "abort:%s:%s" (Res_ir.Pc.to_string pc) message
  | Unclassified { family; pc } ->
      Fmt.str "%s:%s" family (Res_ir.Pc.to_string pc)

let pp ppf t = Fmt.string ppf (signature t)

(* --- happens-before analysis --- *)

module Clock = struct
  (** Vector clocks over tids. *)
  type t = int IMap.t

  let zero : t = IMap.empty
  let get (c : t) tid = Option.value ~default:0 (IMap.find_opt tid c)
  let tick (c : t) tid = IMap.add tid (get c tid + 1) c

  let join (a : t) (b : t) : t =
    IMap.union (fun _ x y -> Some (max x y)) a b

  (** [leq a b]: every component of [a] <= the same component of [b]. *)
  let leq (a : t) (b : t) = IMap.for_all (fun tid v -> v <= get b tid) a
end

type access = { a_pc : Res_ir.Pc.t; a_tid : int; a_write : bool; a_clock : Clock.t }

(** All concurrent conflicting access pairs, via vector clocks built from
    lock release→acquire, spawn, and join edges. *)
let find_races (trace : Res_vm.Event.t list) =
  let clocks = Hashtbl.create 8 in
  let clock_of tid =
    match Hashtbl.find_opt clocks tid with Some c -> c | None -> Clock.zero
  in
  let set_clock tid c = Hashtbl.replace clocks tid c in
  let lock_release : (int, Clock.t) Hashtbl.t = Hashtbl.create 8 in
  let halt_clock : (int, Clock.t) Hashtbl.t = Hashtbl.create 8 in
  let accesses : (int, access list) Hashtbl.t = Hashtbl.create 64 in
  let note_access addr acc =
    Hashtbl.replace accesses addr (acc :: Option.value ~default:[] (Hashtbl.find_opt accesses addr))
  in
  List.iter
    (fun (e : Res_vm.Event.t) ->
      let tid = e.Res_vm.Event.tid in
      let c = Clock.tick (clock_of tid) tid in
      set_clock tid c;
      match e.Res_vm.Event.action with
      | Res_vm.Event.A_read { addr; _ } ->
          note_access addr { a_pc = e.pc; a_tid = tid; a_write = false; a_clock = c }
      | Res_vm.Event.A_write { addr; _ } ->
          note_access addr { a_pc = e.pc; a_tid = tid; a_write = true; a_clock = c }
      | Res_vm.Event.A_lock { addr } -> (
          match Hashtbl.find_opt lock_release addr with
          | Some rc -> set_clock tid (Clock.join c rc)
          | None -> ())
      | Res_vm.Event.A_unlock { addr } -> Hashtbl.replace lock_release addr c
      | Res_vm.Event.A_spawn { new_tid } -> set_clock new_tid c
      | Res_vm.Event.A_join { joined } -> (
          match Hashtbl.find_opt halt_clock joined with
          | Some hc -> set_clock tid (Clock.join c hc)
          | None -> ())
      | Res_vm.Event.A_halt -> Hashtbl.replace halt_clock tid c
      | _ -> ())
    trace;
  Hashtbl.fold
    (fun addr accs races ->
      let rec pairs = function
        | [] -> []
        | a :: rest ->
            List.filter_map
              (fun b ->
                if
                  a.a_tid <> b.a_tid
                  && (a.a_write || b.a_write)
                  && (not (Clock.leq a.a_clock b.a_clock))
                  && not (Clock.leq b.a_clock a.a_clock)
                then Some (addr, a, b)
                else None)
              rest
            @ pairs rest
      in
      pairs accs @ races)
    accesses []

(** Lost-update pattern: t1 reads [a], t2 writes [a], then t1 writes [a] —
    with no t1 access of [a] between the read and the write. *)
let find_atomicity_violations (trace : Res_vm.Event.t list) =
  let arr = Array.of_list trace in
  let n = Array.length arr in
  let result = ref [] in
  let addr_of i =
    match arr.(i).Res_vm.Event.action with
    | Res_vm.Event.A_read { addr; _ } -> Some (addr, false)
    | Res_vm.Event.A_write { addr; _ } -> Some (addr, true)
    | _ -> None
  in
  for i = 0 to n - 1 do
    match addr_of i with
    | Some (addr, false) ->
        let t1 = arr.(i).Res_vm.Event.tid in
        (* find t1's next access to addr *)
        let rec next_t1 j =
          if j >= n then None
          else
            match addr_of j with
            | Some (a, w) when a = addr && arr.(j).Res_vm.Event.tid = t1 ->
                Some (j, w)
            | _ -> next_t1 (j + 1)
        in
        (match next_t1 (i + 1) with
        | Some (k, true) ->
            (* an intervening write by another thread? *)
            let rec scan j =
              if j >= k then ()
              else
                match addr_of j with
                | Some (a, true) when a = addr && arr.(j).Res_vm.Event.tid <> t1 ->
                    result :=
                      ( addr,
                        arr.(i).Res_vm.Event.pc,
                        arr.(j).Res_vm.Event.pc,
                        arr.(k).Res_vm.Event.pc,
                        (t1, arr.(j).Res_vm.Event.tid) )
                      :: !result
                | _ -> scan (j + 1)
            in
            scan (i + 1)
        | _ -> ())
    | _ -> ()
  done;
  List.rev !result

(* --- classification --- *)

(** Classify the root cause of [crash], given the replayed suffix trace,
    the coredump's heap metadata, and the final thread states. *)
let classify ?(threads : Res_vm.Thread.t list = []) ~(crash : Res_vm.Crash.t)
    ~(heap : Res_mem.Heap.t) ~(layout : Res_mem.Layout.t)
    (trace : Res_vm.Event.t list) : t =
  let concurrency_cause addr_filter =
    (* Prefer an atomicity violation (more specific), then a data race,
       restricted to addresses satisfying [addr_filter].  Both need
       accesses by two distinct threads, so a one-thread trace has none. *)
    let one_thread =
      match trace with
      | [] -> true
      | e :: rest ->
          List.for_all
            (fun (e' : Res_vm.Event.t) -> e'.tid = e.Res_vm.Event.tid)
            rest
    in
    if one_thread then None
    else
      match
        List.find_opt (fun (a, _, _, _, _) -> addr_filter a)
          (find_atomicity_violations trace)
      with
      | Some (addr, read_pc, intervening_pc, write_pc, tids) ->
          Some (Atomicity_violation { addr; read_pc; intervening_pc; write_pc; tids })
      | None -> (
          match List.find_opt (fun (a, _, _) -> addr_filter a) (find_races trace) with
          | Some (addr, a1, a2) ->
              Some
                (Data_race
                   {
                     addr;
                     access1 = (a1.a_pc, a1.a_tid, a1.a_write);
                     access2 = (a2.a_pc, a2.a_tid, a2.a_write);
                   })
          | None -> None)
  in
  match crash.Res_vm.Crash.kind with
  | Res_vm.Crash.Use_after_free { addr; base } ->
      let free_pc =
        Option.bind (Res_mem.Heap.block_at heap base) (fun b ->
            b.Res_mem.Heap.free_site)
      in
      Use_after_free_cause { addr; free_pc; access_pc = crash.Res_vm.Crash.pc }
  | Res_vm.Crash.Out_of_bounds { addr; _ } ->
      Buffer_overflow_cause
        {
          addr;
          store_pc = crash.Res_vm.Crash.pc;
          target = Res_mem.Layout.describe layout addr;
        }
  | Res_vm.Crash.Global_overflow { addr; global } ->
      Buffer_overflow_cause { addr; store_pc = crash.Res_vm.Crash.pc; target = global }
  | Res_vm.Crash.Double_free base ->
      let first_free_pc =
        Option.bind (Res_mem.Heap.block_at heap base) (fun b ->
            b.Res_mem.Heap.free_site)
      in
      Double_free_cause { base; first_free_pc; second_free_pc = crash.Res_vm.Crash.pc }
  | Res_vm.Crash.Deadlock tids ->
      (* The cycle is in the final statuses: who waits on which mutex. *)
      let waiting =
        List.filter_map
          (fun (th : Res_vm.Thread.t) ->
            match th.Res_vm.Thread.status with
            | Res_vm.Thread.Blocked_on_lock addr when List.mem th.tid tids ->
                Some (th.Res_vm.Thread.tid, addr)
            | _ -> None)
          threads
      in
      Deadlock_cause { waiting = List.sort_uniq compare waiting }
  | Res_vm.Crash.Div_by_zero -> (
      (* A zero divisor may itself come from a concurrency bug. *)
      match concurrency_cause (fun _ -> true) with
      | Some cause -> cause
      | None -> Division_by_zero_cause { pc = crash.Res_vm.Crash.pc })
  | Res_vm.Crash.Assert_fail message -> (
      (* The classic case: the assert observes state corrupted by a race. *)
      match concurrency_cause (fun _ -> true) with
      | Some cause -> cause
      | None -> Assertion_cause { pc = crash.Res_vm.Crash.pc; message })
  | Res_vm.Crash.Abort_called message -> (
      match concurrency_cause (fun _ -> true) with
      | Some cause -> cause
      | None -> Abort_cause { pc = crash.Res_vm.Crash.pc; message })
  | Res_vm.Crash.Seg_fault addr -> (
      (* A fault just past a heap block is an overflow that skipped the
         guard word (e.g. index size+2). *)
      match Res_mem.Heap.find_below heap addr with
      | Some b
        when addr >= b.Res_mem.Heap.base + b.Res_mem.Heap.size
             && addr <= b.Res_mem.Heap.base + b.Res_mem.Heap.size + 16 ->
          Buffer_overflow_cause
            {
              addr;
              store_pc = crash.Res_vm.Crash.pc;
              target = Fmt.str "heap:0x%x" b.Res_mem.Heap.base;
            }
      | _ -> (
          match concurrency_cause (fun _ -> true) with
          | Some cause -> cause
          | None ->
              Unclassified
                {
                  family = Res_vm.Crash.kind_family crash.Res_vm.Crash.kind;
                  pc = crash.Res_vm.Crash.pc;
                }))
  | Res_vm.Crash.Invalid_free _ | Res_vm.Crash.Unlock_error _
  | Res_vm.Crash.Alloc_error _ ->
      Unclassified
        {
          family = Res_vm.Crash.kind_family crash.Res_vm.Crash.kind;
          pc = crash.Res_vm.Crash.pc;
        }
