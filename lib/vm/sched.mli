(** Schedulers.

    MiniVM context-switches only at scheduling boundaries (the start of a
    basic block of a thread's root frame, or when the running thread
    blocks), so a schedule is fully described by the sequence of tids
    chosen at those points — which is exactly the granularity at which RES
    reconstructs thread schedules. *)

type policy =
  | Round_robin
  | Seeded of int  (** pseudo-random pick at each boundary, per seed *)
  | Fixed of int list
      (** scripted: pick exactly these tids at successive boundaries; when
          exhausted or the scripted tid is not runnable, fall back to
          round-robin (used by the replayer, which scripts the suffix) *)

type t

val create : policy -> t

(** [pick t ~runnable] chooses the next thread among [runnable] (sorted
    ascending).
    @raise Invalid_argument when [runnable] is empty. *)
val pick : t -> runnable:int list -> int

(** Everything {!pick} reads and advances (the round-robin cursor, the
    seeded generator, the rest of a fixed script), as one immutable value:
    taking and putting it back is a pointer copy, so a replay can rewind
    its scheduler with the rest of the machine. *)
type cursor

val cursor : t -> cursor
val set_cursor : t -> cursor -> unit
