(** Symbolic memory for one forward block execution.

    The executor never sees the post-state directly: a read of an address
    that this execution has not yet written mints a fresh "pre-memory"
    symbol [v_a] and records it.  The backward stepper later ties those
    symbols to the post-state ([v_a = Spost(a)] for addresses the block
    never overwrites) — exactly the read/write rule of paper §2.4. *)

type t

val empty : t

(** ["pre:mem[0x<a>]"], the name of the pre symbol {!read} mints for
    address [a], in lower-case hex as [Printf.sprintf "%x"] writes it. *)
val pre_mem_name : int -> string

(** [read m a] — the current value at [a], minting a pre symbol on a first
    read-before-write.  Returns the value and the updated memory. *)
val read : t -> int -> Res_solver.Expr.t * t

(** Record a write. *)
val write : t -> int -> Res_solver.Expr.t -> t

(** Addresses written by this execution (deduplicated, ascending). *)
val written_addrs : t -> int list

(** Final value of every written address. *)
val final_writes : t -> (int * Res_solver.Expr.t) list

(** Pre-state symbols minted, as [(addr, sym)], ascending by address. *)
val pre_syms : t -> (int * Res_solver.Expr.sym) list

(** Whether the address was written at some point by this execution. *)
val was_written : t -> int -> bool
