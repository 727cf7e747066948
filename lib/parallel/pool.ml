(** Generic worker pool over string request/reply pairs.

    Two interchangeable backends:

    - [Domains]: OCaml 5 domains sharing the coordinator's heap.  Work
      units are pulled off an atomic index; results land in a shared
      array.  Cheapest, but a worker crash takes the process with it.
    - [Forked]: one [Unix.fork]'d child per worker slot, length-prefixed
      frames over pipes.  Slower (payloads are serialized), but a worker
      that dies — OOM-killed, segfaulted, or SIGKILLed by the fault
      injector — is detected by pipe EOF and its in-flight unit is
      rescheduled on a fresh child (up to {!max_attempts} tries).

    The pool itself knows nothing about RES: callers hand it a worker
    {e factory} [unit -> string -> string] (invoked once per worker, so
    each worker builds private mutable state — notably its own
    [Backstep.ctx], whose lazy static summaries must not be forced from
    two domains at once) and a list of request payloads; it returns one
    reply slot per request, [None] where every attempt failed. *)

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
  p_respawns : int;  (** replacement workers forked after a death (fork only) *)
}

(** Default attempts per unit before it is abandoned as lost. *)
let default_attempts = 3

(** Backoff before respawning a dead worker: [base * 2^deaths],
    capped.  Immediate respawn (the old behavior) amplifies a persistent
    failure — a worker that dies on startup would be re-forked in a hot
    loop; the capped exponential delay keeps the coordinator responsive
    while starving a crash loop of fuel. *)
let default_backoff_base = 0.005

let default_backoff_cap = 0.25

(** The delay before the [deaths]-th respawn (0-based). *)
let backoff_delay ~base ~cap deaths =
  if base <= 0. then 0.
  else min cap (base *. (2. ** float_of_int (min deaths 30)))

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
    } )

(* --- forked backend ------------------------------------------------- *)

(* Frame I/O lives in {!Wire} (10-digit length prefix + payload), shared
   with the triage daemon's socket protocol. *)

let write_frame = Wire.write_frame
let read_frame = Wire.read_frame

(* A child serves requests until its request pipe hits EOF.  A worker
   factory or per-unit exception becomes an "ex"-prefixed reply — a
   deterministic failure the parent must not retry (same input, same
   crash); only a silent death (EOF without reply) triggers rescheduling. *)
let child_serve req_r res_w worker =
  let f = try Ok (worker ()) with exn -> Error (Printexc.to_string exn) in
  let reply payload =
    match f with
    | Error e -> "ex" ^ e
    | Ok f -> (
        match f payload with
        | r -> "ok" ^ r
        | exception exn -> "ex" ^ Printexc.to_string exn)
  in
  let rec loop () =
    match read_frame req_r with
    | None -> ()
    | Some payload ->
        write_frame res_w (reply payload);
        loop ()
  in
  loop ()

type wrk = {
  pid : int;
  req_w : Unix.file_descr;
  res_r : Unix.file_descr;
  mutable inflight : int option;  (** unit index awaiting a reply *)
  mutable req_open : bool;
      (** [req_w] not yet closed: a retired worker's descriptor number may
          already belong to a newer pipe, which a second close would cut *)
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_req w =
  if w.req_open then begin
    w.req_open <- false;
    close_quiet w.req_w
  end

let run_forked ?kill_unit ?(attempts = default_attempts) ~jobs ~worker
    units =
  let max_attempts = max 1 attempts in
  let units = Array.of_list units in
  let n = Array.length units in
  let results = Array.make n None in
  let attempts = Array.make n 0 in
  let retries = ref 0 and lost = ref 0 in
  let deaths = ref 0 and respawns = ref 0 in
  let remaining = ref n in
  let pending = Queue.create () in
  Array.iteri (fun i _ -> Queue.add i pending) units;
  let workers = ref [] in
  let kill_armed = ref kill_unit in
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let spawn () =
    (* Flush before forking so buffered output is not emitted twice, and
       close every other worker's pipe ends in the child so a dead parent
       or sibling cannot keep a pipe artificially open. *)
    flush stdout;
    flush stderr;
    let req_r, req_w = Unix.pipe () in
    let res_r, res_w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        close_quiet req_w;
        close_quiet res_r;
        List.iter
          (fun w ->
            close_req w;
            close_quiet w.res_r)
          !workers;
        (try child_serve req_r res_w worker with _ -> ());
        Unix._exit 0
    | pid ->
        close_quiet req_r;
        close_quiet res_w;
        let w = { pid; req_w; res_r; inflight = None; req_open = true } in
        workers := w :: !workers;
        w
  in
  let rec dispatch w =
    match Queue.take_opt pending with
    | None -> close_req w (* retire: child exits on EOF *)
    | Some i -> (
        w.inflight <- Some i;
        match write_frame w.req_w units.(i) with
        | () -> (
            match !kill_armed with
            | Some k when k = i ->
                kill_armed := None;
                (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
            | _ -> ())
        | exception Unix.Unix_error _ -> handle_death w)
  (* A worker died (EOF on its reply pipe, or EPIPE writing to it).  Its
     in-flight unit goes back on the queue unless it has burned all its
     attempts.  The replacement is forked after a capped exponential
     backoff so a crash-looping worker cannot pin the coordinator in a
     fork storm. *)
  and handle_death w =
    workers := List.filter (fun w' -> w'.pid <> w.pid) !workers;
    close_req w;
    close_quiet w.res_r;
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    (match w.inflight with
    | None -> ()
    | Some i ->
        w.inflight <- None;
        attempts.(i) <- attempts.(i) + 1;
        if attempts.(i) >= max_attempts then begin
          incr lost;
          decr remaining
        end
        else begin
          incr retries;
          Queue.add i pending
        end);
    if not (Queue.is_empty pending) then begin
      let delay =
        backoff_delay ~base:default_backoff_base ~cap:default_backoff_cap
          !deaths
      in
      incr deaths;
      if delay > 0. then Unix.sleepf delay;
      incr respawns;
      dispatch (spawn ())
    end
    else incr deaths
  in
  let find_worker fd = List.find (fun w -> w.res_r = fd) !workers in
  let handle_reply w reply =
    match w.inflight with
    | None -> () (* stray frame from a retired worker; ignore *)
    | Some i ->
        w.inflight <- None;
        let tag = if String.length reply >= 2 then String.sub reply 0 2 else ""
        in
        (if String.equal tag "ok" then
           results.(i) <- Some (String.sub reply 2 (String.length reply - 2))
         else incr lost);
        decr remaining;
        dispatch w
  in
  let finalize () =
    List.iter close_req !workers;
    List.iter
      (fun w ->
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        close_quiet w.res_r)
      !workers;
    workers := [];
    ignore (Sys.signal Sys.sigpipe old_sigpipe)
  in
  Fun.protect ~finally:finalize (fun () ->
      let jobs = max 1 (min jobs n) in
      for _ = 1 to jobs do
        dispatch (spawn ())
      done;
      while !remaining > 0 do
        match !workers with
        | [] ->
            (* Every worker died; if work remains queued, keep going on a
               fresh child (inflight units were requeued or written off by
               [handle_death], so the queue is the whole remainder). *)
            if Queue.is_empty pending then remaining := 0
            else begin
              incr respawns;
              dispatch (spawn ())
            end
        | ws -> (
            let fds = List.map (fun w -> w.res_r) ws in
            match Unix.select fds [] [] (-1.0) with
            | readable, _, _ ->
                List.iter
                  (fun fd ->
                    match find_worker fd with
                    | w -> (
                        match read_frame fd with
                        | Some reply -> handle_reply w reply
                        | None -> handle_death w)
                    | exception Not_found -> ())
                  readable
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      done);
  ( Array.to_list results,
    {
      p_workers = max 1 (min jobs n);
      p_retries = !retries;
      p_lost = !lost;
      p_respawns = !respawns;
    } )

(* --- entry point ---------------------------------------------------- *)

(** [run ?backend ?kill_unit ~jobs ~worker units] processes every
    payload in [units] on [jobs] workers and returns the replies in
    request order plus run {!stats}.

    [kill_unit] (fork backend only) SIGKILLs the worker right after unit
    [i] is dispatched to it — the fault-injection hook behind the
    worker-kill campaign.  [attempts] bounds tries per unit before it is
    written off as lost (default {!default_attempts}).  A dead worker's
    replacement is forked after {!backoff_delay} with
    {!default_backoff_base} and {!default_backoff_cap}. *)
let run ?backend ?kill_unit ?attempts ~jobs ~worker units =
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
      run_forked ?kill_unit ?attempts ~jobs ~worker units
