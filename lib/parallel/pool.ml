(** Generic worker pool: one string reply per unit.

    Two interchangeable backends:

    - [Domains]: OCaml 5 domains sharing the coordinator's heap.  Work
      units are pulled off an atomic index; results land in a shared
      array.  Cheapest, but a worker crash takes the process with it.
    - [Forked]: the process's kept children ({!Supervisor.kept}), forked
      on first need and reused by every later run, length-prefixed frames
      over pipes.  Slower (a child forked by an earlier run is sent this
      run's worker and units, marshalled, and replies are serialized),
      but a worker that dies — OOM-killed, segfaulted, or SIGKILLed by
      the fault injector — is detected by pipe EOF, and the
      {!Supervisor} reschedules its in-flight unit on a fresh child after
      a capped backoff.

    The pool itself knows nothing about RES: callers hand it a worker
    {e factory} [unit -> 'u -> string] (invoked once per worker and run,
    so each worker builds private mutable state) and a list of units; it
    returns one reply slot per unit, [None] where every attempt failed.
    On the fork backend a unit's payload is its index: a worker carries
    the run's units with it. *)

type backend = Domains | Forked

(** Runtime backend selection: the [RES_PARALLEL_BACKEND] environment
    variable ("domains" / "fork") wins; otherwise [Domains] when the
    runtime reports more than one core, else [Forked] (a uniprocessor
    gains nothing from domains, and fork at least isolates faults). *)
let default_backend () =
  match Sys.getenv_opt "RES_PARALLEL_BACKEND" with
  | Some "fork" -> Forked
  | Some "domains" -> Domains
  | _ -> if Domain.recommended_domain_count () > 1 then Domains else Forked

(** How a run went, beyond the replies themselves. *)
type stats = {
  p_workers : int;  (** worker slots actually used *)
  p_retries : int;  (** units rescheduled after a worker death (fork only) *)
  p_lost : int;  (** units with no reply after all attempts *)
  p_respawns : int;  (** forks that replaced a dead worker (fork only) *)
  p_forked : int;
      (** workers this run forked (fork only): 0 once the process's
          kept workers are warm *)
}

(* The OCaml 5 runtime forbids [Unix.fork] once any domain has ever been
   spawned in the process.  The two backends therefore cannot be freely
   interleaved: every [Forked] run must precede the first [Domains] run.
   A normal CLI invocation uses exactly one backend so never trips this;
   test and selftest drivers order their fork phases first.  We track the
   transition so a late fork fails with a diagnosis instead of a cryptic
   runtime error. *)
let domains_spawned = ref false

(* --- domains backend ------------------------------------------------ *)

let run_domains ~jobs ~worker units =
  let units = Array.of_list units in
  let n = Array.length units in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let lost = Atomic.make 0 in
  let body () =
    let f = worker () in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f units.(i) with
        | reply -> results.(i) <- Some reply
        | exception _ -> ignore (Atomic.fetch_and_add lost 1));
        loop ()
      end
    in
    loop ()
  in
  let jobs = max 1 (min jobs n) in
  (* The coordinator's own domain is worker zero; extra domains that fail
     to spawn (runtime limits) are simply dropped — the remaining workers
     drain the whole queue regardless. *)
  let doms =
    List.filter_map
      (fun _ ->
        try
          let d = Domain.spawn body in
          domains_spawned := true;
          Some d
        with _ -> None)
      (List.init (jobs - 1) Fun.id)
  in
  body ();
  List.iter Domain.join doms;
  ( Array.to_list results,
    {
      p_workers = 1 + List.length doms;
      p_retries = 0;
      p_lost = Atomic.get lost;
      p_respawns = 0;
      p_forked = 0;
    } )

(* --- entry point ---------------------------------------------------- *)

(** [run ?backend ?kill_unit ~jobs ~worker units] processes every unit
    in [units] on [jobs] workers and returns the replies in request order
    plus run {!stats}.

    The fork backend is the {!Supervisor} over {!Supervisor.kept} slots:
    the process's kept workers, forked only when a unit finds none idle.
    [kill_unit] (fork backend only) SIGKILLs the worker right after unit
    [i] is first dispatched to it — the fault-injection hook behind the
    worker-kill campaign.  [attempts] bounds tries per unit before it is
    written off as lost (default 3).  [~keep:false] (fork backend only)
    retires the workers as the run ends, for a caller that runs no later
    forked batch ({!Supervisor.kept}). *)
let run ?backend ?kill_unit ?attempts ?keep ~jobs ~worker units =
  let backend =
    match backend with Some b -> b | None -> default_backend ()
  in
  match backend with
  | Domains -> run_domains ~jobs ~worker units
  | Forked ->
      if !domains_spawned then
        invalid_arg
          "Res_parallel.Pool: the fork backend cannot run after the domains \
           backend has spawned workers in this process (OCaml runtime \
           restriction); run fork-backend work first";
      let units = Array.of_list units in
      let armed = ref kill_unit in
      let kill i _ = !armed = Some i && (armed := None; true) in
      (* the worker carries the units, so a unit is just its index *)
      let worker () =
        let f = worker () in
        fun i -> f units.(int_of_string i)
      in
      let slots, forks =
        Supervisor.kept ~kill ?keep ~jobs ~payload:string_of_int ~worker ()
      in
      let sup = Supervisor.create ?attempts slots in
      Array.iteri (fun i _ -> Supervisor.add sup i) units;
      let results = Array.make (Array.length units) None in
      Supervisor.run sup (fun i r -> results.(i) <- Result.to_option r);
      let workers = min (max 1 jobs) (Array.length units) in
      ( Array.to_list results,
        {
          p_workers = workers;
          p_retries = sup.retries;
          p_lost = sup.lost;
          p_respawns = forks.respawned;
          p_forked = forks.forked;
        } )
