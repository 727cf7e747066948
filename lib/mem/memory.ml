(** Sparse word-addressed memory.

    Persistent (applicative) so that snapshots — coredumps, symbolic
    snapshots, search states — are O(1) to take and cheap to diff.  Reads
    of unwritten mapped words return 0, matching zero-initialized globals
    and heap.  Validity of an address is {e not} checked here; the VM
    consults {!Layout} and {!Heap} before touching memory. *)

module IMap = Map.Make (Int)

type t = int IMap.t

let empty : t = IMap.empty

(** [read m a] is the word at [a] (0 if never written). *)
let read m a = match IMap.find_opt a m with Some v -> v | None -> 0

(** [write m a v] sets the word at [a].  Writing 0 still records the cell,
    so that diffs and coredump comparisons see explicitly-zeroed cells. *)
let write m a v : t = IMap.add a v m

(** Cells ever written, ascending by address. *)
let bindings (m : t) = IMap.bindings m

let cardinal (m : t) = IMap.cardinal m

let fold f (m : t) acc = IMap.fold f m acc

(** [diff a b] is the list of [(addr, in_a, in_b)] where the memories
    disagree (treating missing cells as 0). *)
let diff (a : t) (b : t) =
  let out = ref [] in
  IMap.iter
    (fun addr va ->
      let vb = read b addr in
      if va <> vb then out := (addr, va, vb) :: !out)
    a;
  IMap.iter
    (fun addr vb -> if not (IMap.mem addr a) && vb <> 0 then out := (addr, 0, vb) :: !out)
    b;
  List.sort compare !out

(** [diff a b = []], without building the list: stops at the first
    disagreeing cell and allocates nothing per cell.  Equal bindings, the
    usual case, are decided without a lookup per cell. *)
let equal (a : t) (b : t) =
  IMap.equal Int.equal a b
  || IMap.for_all
       (fun addr va ->
         match IMap.find addr b with
         | vb -> va = vb
         | exception Not_found -> va = 0)
       a
     && IMap.for_all (fun addr vb -> vb = 0 || IMap.mem addr a) b

(** [flip_bit m a bit] flips one bit of the word at [a] — the hardware
    memory-error injection primitive (paper §3.2). *)
let flip_bit m a bit =
  if bit < 0 || bit > 61 then invalid_arg "Memory.flip_bit: bit out of range";
  write m a (read m a lxor (1 lsl bit))

let pp ppf m =
  let pp_cell ppf (a, v) = Fmt.pf ppf "[0x%x]=%d" a v in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_cell) (bindings m)
