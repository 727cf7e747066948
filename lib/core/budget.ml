(** Deadline/fuel budgets for the analysis pipeline.

    A single [t] bundles the two resource bounds every stage of the
    pipeline must respect: a wall-clock deadline and a cooperative fuel
    counter (search nodes).  Stages call {!tick} (or hand the solver and
    symbolic executor an {!interrupt} closure) at every unit of work; once
    either bound trips, the budget stays exhausted and every subsequent
    check fails fast, so the whole stack unwinds cooperatively and returns
    the best partial answer it has instead of running forever. *)

type exhaustion = Deadline | Fuel

let pp_exhaustion ppf = function
  | Deadline -> Fmt.string ppf "wall-clock deadline exceeded"
  | Fuel -> Fmt.string ppf "fuel budget exhausted"

type t = {
  deadline : float option;  (** absolute [Unix.gettimeofday] time *)
  started : float;
  mutable fuel : int option;  (** remaining cooperative ticks *)
  mutable tripped : exhaustion option;
}

let now () = Unix.gettimeofday ()

(** [create ?wall_seconds ?fuel ()] starts the clock immediately. *)
let create ?wall_seconds ?fuel () =
  let started = now () in
  {
    deadline = Option.map (fun s -> started +. s) wall_seconds;
    started;
    fuel;
    tripped = None;
  }

let unlimited () = create ()

let exhausted t = t.tripped

let elapsed t = now () -. t.started

(** Check without spending fuel: trips the deadline if it has passed. *)
let ok t =
  match t.tripped with
  | Some _ -> false
  | None -> (
      match t.deadline with
      | Some d when now () > d ->
          t.tripped <- Some Deadline;
          false
      | _ -> true)

(** Spend [cost] fuel (default 1) and check both bounds.  Returns [false]
    once the budget is exhausted; exhaustion is sticky. *)
let tick ?(cost = 1) t =
  if not (ok t) then false
  else
    match t.fuel with
    | None -> true
    | Some f when f >= cost ->
        t.fuel <- Some (f - cost);
        true
    | Some _ ->
        t.fuel <- Some 0;
        t.tripped <- Some Fuel;
        false

(** A cooperative-interrupt closure for the solver and symbolic executor:
    returns [true] when work must stop.  Checks the deadline but does not
    spend fuel (fuel meters search nodes, not solver nodes). *)
let interrupt t () = not (ok t)
