(** Deadline/fuel budgets for the analysis pipeline.

    One value bundles a wall-clock deadline and a cooperative fuel counter;
    every pipeline stage checks it at each unit of work.  Exhaustion is
    sticky: once a bound trips, every later check fails fast so the whole
    stack unwinds and returns its best partial answer. *)

type exhaustion = Deadline | Fuel

val pp_exhaustion : Format.formatter -> exhaustion -> unit

type t

(** [create ?wall_seconds ?fuel ()] — the clock starts immediately.
    Omitted bounds are unlimited. *)
val create : ?wall_seconds:float -> ?fuel:int -> unit -> t

(** A budget with no bounds (every check succeeds). *)
val unlimited : unit -> t

(** Which bound tripped, if any. *)
val exhausted : t -> exhaustion option

(** Wall-clock seconds since [create]. *)
val elapsed : t -> float

(** Check without spending fuel; trips the deadline if it has passed. *)
val ok : t -> bool

(** Spend [cost] fuel (default 1) and check both bounds.  [false] once
    exhausted. *)
val tick : ?cost:int -> t -> bool

(** Cooperative-interrupt closure for {!Res_solver.Solver} and
    {!Res_symex.Symexec}: [true] means stop now.  Checks the deadline only;
    fuel meters search nodes. *)
val interrupt : t -> unit -> bool
