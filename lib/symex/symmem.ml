(** Symbolic memory for one forward block execution.

    The executor never sees the post-state directly: a read of an address
    that this execution has not yet written mints a fresh "pre-memory"
    symbol [v_a] and records it.  The backward stepper later ties those
    symbols to the post-state ([v_a = Spost(a)] for addresses the block
    never overwrites) — exactly the read/write rule of paper §2.4. *)

module IMap = Map.Make (Int)

type t = {
  over : Res_solver.Expr.t IMap.t;  (** writes made by this execution *)
  pre : Res_solver.Expr.sym IMap.t;  (** lazily minted pre-state symbols *)
  writes : IMap.key list;  (** addresses written, most recent first *)
}

let empty = { over = IMap.empty; pre = IMap.empty; writes = [] }

let hex_digit = "0123456789abcdef"

(** [a] in lower-case hex, as [Printf.sprintf "%x" a]. *)
let hex a =
  if a < 0 then Printf.sprintf "%x" a
  else
    let rec width n w = if n < 16 then w else width (n lsr 4) (w + 1) in
    let w = width a 1 in
    let b = Bytes.create w in
    let rec fill n i =
      Bytes.unsafe_set b i hex_digit.[n land 15];
      if i > 0 then fill (n lsr 4) (i - 1)
    in
    fill a (w - 1);
    Bytes.unsafe_to_string b

let pre_mem_name a = "pre:mem[0x" ^ hex a ^ "]"

(** [read m a] — the current value at [a], minting a pre symbol on a first
    read-before-write.  Returns the value and the updated memory. *)
let read m a =
  match IMap.find_opt a m.over with
  | Some e -> (e, m)
  | None -> (
      match IMap.find_opt a m.pre with
      | Some s -> (Res_solver.Expr.Sym s, m)
      | None ->
          let s = Res_solver.Expr.fresh_sym (pre_mem_name a) in
          (Res_solver.Expr.Sym s, { m with pre = IMap.add a s m.pre }))

let write m a e = { m with over = IMap.add a e m.over; writes = a :: m.writes }

(** Addresses written by this execution (deduplicated, ascending). *)
let written_addrs m = List.sort_uniq compare m.writes

(** Final value of every written address. *)
let final_writes m =
  List.map (fun a -> (a, IMap.find a m.over)) (written_addrs m)

(** Pre-state symbols minted, as [(addr, sym)], ascending by address. *)
let pre_syms m = IMap.bindings m.pre

(** Whether [a] was written at some point by this execution. *)
let was_written m a = IMap.mem a m.over
