(** Schedulers.

    MiniVM context-switches only at basic-block boundaries (and when a
    thread blocks), so a schedule is fully described by the sequence of
    tids chosen at those points — which is exactly the granularity at which
    RES reconstructs thread schedules (DESIGN.md §1). *)

type policy =
  | Round_robin
  | Seeded of int  (** pseudo-random pick at each boundary, per seed *)
  | Fixed of int list
      (** scripted: pick exactly these tids at successive boundaries; when
          exhausted or the scripted tid is not runnable, fall back to
          round-robin (used by the replayer, which scripts the full suffix) *)

(** Everything {!pick} reads and advances, as one immutable value: taking
    and putting back a scheduler's position is a pointer copy, which is
    what lets a replay rewind its scheduler with the rest of the machine.
    A pick that changes nothing allocates nothing. *)
type cursor = { rr_last : int; rng : int; script : int list }

type t = { policy : policy; mutable cursor : cursor }

let cursor t = t.cursor
let set_cursor t c = t.cursor <- c

let create policy =
  let rng = match policy with Seeded s -> s lxor 0x1851f42d4c957f2d | _ -> 0 in
  let script = match policy with Fixed l -> l | _ -> [] in
  { policy; cursor = { rr_last = -1; rng; script } }

let next_rand t =
  let z = t.cursor.rng + 0x1e3779b97f4a7c15 in
  t.cursor <- { t.cursor with rng = z };
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  (z lxor (z lsr 31)) land max_int

let round_robin t runnable =
  let last = t.cursor.rr_last in
  let above = List.filter (fun tid -> tid > last) runnable in
  let chosen = match above with tid :: _ -> tid | [] -> List.hd runnable in
  if chosen <> last then t.cursor <- { t.cursor with rr_last = chosen };
  chosen

(** [pick t runnable] chooses the next thread among [runnable] (sorted
    ascending, non-empty). *)
let pick t ~runnable =
  match runnable with
  | [] -> invalid_arg "Sched.pick: no runnable threads"
  | _ -> (
      match t.policy with
      | Round_robin -> round_robin t runnable
      | Seeded _ -> List.nth runnable (next_rand t mod List.length runnable)
      | Fixed _ -> (
          match t.cursor.script with
          | tid :: rest when List.mem tid runnable ->
              t.cursor <- { t.cursor with script = rest };
              tid
          | _ :: rest ->
              (* Scripted thread not runnable here: skip the entry.  The
                 picks then differ from the script, so the replayer's
                 [pinned] witness fails and the report is not
                 deterministic. *)
              t.cursor <- { t.cursor with script = rest };
              round_robin t runnable
          | [] -> round_robin t runnable))
