(** Symbolic expressions.

    The paper's symbolic values (§2.3): an expression is either a concrete
    word, a symbolic variable ("stand-in for any possible value"), or an
    operator applied to sub-expressions.  The operators are exactly MiniIR's
    ALU operators, so forward symbolic execution of a block is a direct
    re-interpretation of its instructions over this type. *)

(** A symbolic variable.  [name] records provenance for humans (e.g.
    ["pre:r3"], ["input:net"]); identity is [id]. *)
type sym = { id : int; name : string }

type t =
  | Const of int
  | Sym of sym
  | Binop of Res_ir.Instr.binop * t * t
  | Unop of Res_ir.Instr.unop * t
  | Ite of t * t * t  (** if-then-else on a nonzero condition *)

(** Allocate a fresh symbolic variable, globally unique for the process. *)
val fresh_sym : string -> sym

(** [fresh name] is [Sym (fresh_sym name)]. *)
val fresh : string -> t

(** Reset the id counter — test isolation only. *)
val reset_counter_for_tests : unit -> unit

val const : int -> t
val zero : t
val one : t
val is_const : t -> bool
val const_val : t -> int option

(** {2 Shorthand constructors} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val eq : t -> t -> t
val ne : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t
val logical_not : t -> t

(** Sets of symbolic variables, ordered by id. *)
module Sym_set : Set.S with type elt = sym

(** Free symbolic variables of an expression. *)
val syms : t -> Sym_set.t

(** Whether the expression contains no symbolic variables. *)
val is_concrete : t -> bool

(** [subst f e] replaces each variable [s] by [f s] ([Sym s] keeps it). *)
val subst : (sym -> t) -> t -> t

(** [subst_sym s v e] replaces variable [s] by the constant [v]. *)
val subst_sym : sym -> int -> t -> t

(** Evaluate under a total assignment.
    @raise Division_by_zero when the assignment divides by zero — callers
    (the solver) treat such candidates as failing. *)
val eval : (sym -> int) -> t -> int

(** Structural size — a solver heuristic and test aid. *)
val size : t -> int

(** Structural equality (variables by id). *)
val equal : t -> t -> bool

(** Total structural order. *)
val compare_expr : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
