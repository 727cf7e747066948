(** One worker supervisor for batch triage, the triage daemon and the
    cluster coordinator.

    A unit of work runs on a {e slot}: a forked child on a pipe
    ({!local}), or a connection to a [res serve] node (the coordinator's
    slot set).  The slot set says how to start a unit, which descriptor
    to watch, and what a readable descriptor means; the supervisor owns
    everything else, once:

    - a FIFO of pending units, each with its attempt count and a
      capped-backoff gate ({!backoff}) that delays its next start
      without blocking the loop, so replies from sibling slots are
      still taken while one unit waits out its gate;
    - an optional per-attempt deadline: past it the slot is killed and
      the caller's [on_deadline] hook decides what the attempt was
      (a retry for the coordinator, a timeout row for the daemon);
    - the lost unit: one whose every attempt failed, or whose slot
      reported a deterministic failure, finishes as [Error why].

    The loop is a single [select]: {!run} drives it to completion for a
    batch; the daemon embeds it in its own loop through {!fds},
    {!timeout} and {!handle}. *)

(** Capped exponential backoff, [base * 2^n] seconds, at most [cap]. *)
let backoff_delay ~base ~cap n =
  if base <= 0. then 0. else min cap (base *. (2. ** float_of_int (min n 30)))

(** The one backoff pair, for a retried unit and a failing node alike:
    an immediate retry would amplify a persistent failure (a worker that
    dies on startup re-forked in a hot loop), and the cap keeps a long
    streak from stalling the run. *)
let backoff_base = 0.01

let backoff_cap = 0.25

(** The gate before a unit's [n]th retry (0-based). *)
let backoff n = backoff_delay ~base:backoff_base ~cap:backoff_cap n

(** What a slot reports about the unit it carries. *)
type 'r event =
  | Wait  (** nothing final yet (a node accepted the unit) *)
  | Done of 'r  (** the unit's answer *)
  | Failed of string
      (** a deterministic failure: the unit ends without an answer and
          is not retried (same input, same failure) *)
  | Retry of string * float
      (** this attempt failed: charge an attempt, and gate the next one
          at least this many seconds on top of the backoff *)

(** Where units run.  [start] begins an attempt: [`Busy] means no slot
    can take this unit now, [`Full] no slot can take any unit, and
    [`Now] an attempt that ended before it had a descriptor.  After a
    [Done] or [Failed] the slot is [release]d (with [true] when no unit
    is queued, so a reusable slot may retire); after a [Retry] or a
    deadline it is [kill]ed.  [tick] is called once per pass of the
    loop, for the slot set's housekeeping, and returns a slot-side timer
    the loop must wake for; [close] retires idle slots at the end of a
    run. *)
type ('u, 'h, 'r) slots = {
  start : 'u -> [ `Started of 'h | `Busy | `Full | `Now of 'r event ];
  fd : 'h -> Unix.file_descr;
  read : 'h -> 'r event;
  release : 'h -> bool -> unit;
  kill : 'h -> unit;
  tick : unit -> float option;
  close : unit -> unit;
}

type 'u pending = { u : 'u; mutable tries : int; mutable not_before : float }
type ('u, 'h) live = { pu : 'u pending; h : 'h; kill_at : float }

type ('u, 'h, 'r) t = {
  slots : ('u, 'h, 'r) slots;
  attempts : int;  (** tries per unit before it is lost *)
  deadline : 'u -> float option;  (** seconds per attempt *)
  on_deadline : 'u -> 'h -> 'r event;
  queue : 'u pending Queue.t;
  mutable live : ('u, 'h) live list;
  mutable retries : int;  (** attempts requeued after a failure *)
  mutable lost : int;  (** units finished without an answer *)
}

let create ?(attempts = 3) ?(deadline = fun _ -> None)
    ?(on_deadline = fun _ _ -> Retry ("deadline exceeded", 0.)) slots =
  {
    slots;
    attempts = max 1 attempts;
    deadline;
    on_deadline;
    queue = Queue.create ();
    live = [];
    retries = 0;
    lost = 0;
  }

let add t u = Queue.push { u; tries = 0; not_before = 0. } t.queue
let queued t = Queue.length t.queue
let running t = List.map (fun l -> l.pu.u) t.live
let idle t = Queue.is_empty t.queue && t.live = []
let fds t = List.map (fun l -> t.slots.fd l.h) t.live

(* An attempt of [p] ended with [ev] (its slot, if any, is already
   out of [t.live]); a finished unit goes to [on_done]. *)
let settle t p ?h ev on_done =
  match ev with
  | Wait -> ()
  | Done r ->
      Option.iter (fun h -> t.slots.release h (Queue.is_empty t.queue)) h;
      on_done p.u (Ok r)
  | Failed why ->
      Option.iter (fun h -> t.slots.release h (Queue.is_empty t.queue)) h;
      t.lost <- t.lost + 1;
      on_done p.u (Error why)
  | Retry (why, after) ->
      Option.iter t.slots.kill h;
      p.tries <- p.tries + 1;
      if p.tries >= t.attempts then begin
        t.lost <- t.lost + 1;
        on_done p.u
          (Error (Fmt.str "%d attempts exhausted (last: %s)" p.tries why))
      end
      else begin
        t.retries <- t.retries + 1;
        p.not_before <-
          Unix.gettimeofday () +. Float.max after (backoff (p.tries - 1));
        Queue.push p t.queue
      end

(** Start every pending unit whose gate has passed and that a slot can
    take, keeping the queue's order. *)
let dispatch t on_done =
  let now = Unix.gettimeofday () in
  let rec pass k =
    if k > 0 then begin
      let p = Queue.pop t.queue in
      if p.not_before > now then begin
        Queue.push p t.queue;
        pass (k - 1)
      end
      else
        match t.slots.start p.u with
        | `Started h ->
            let kill_at =
              match t.deadline p.u with
              | Some d -> now +. d
              | None -> infinity
            in
            t.live <- { pu = p; h; kill_at } :: t.live;
            pass (k - 1)
        | `Busy ->
            Queue.push p t.queue;
            pass (k - 1)
        | `Now ev ->
            settle t p ev on_done;
            pass (k - 1)
        | `Full ->
            (* rotate the untried rest behind it: the order survives *)
            Queue.push p t.queue;
            for _ = 2 to k do
              Queue.push (Queue.pop t.queue) t.queue
            done
    end
  in
  pass (Queue.length t.queue)

let remove t l = t.live <- List.filter (fun l' -> l' != l) t.live

(** Take the events of the [ready] slots, kill the attempts past their
    deadline, and start what can start. *)
let handle t ready on_done =
  List.iter
    (fun l ->
      if List.mem (t.slots.fd l.h) ready then
        match t.slots.read l.h with
        | Wait -> ()
        | ev ->
            remove t l;
            settle t l.pu ~h:l.h ev on_done)
    t.live;
  let now = Unix.gettimeofday () in
  List.iter
    (fun l ->
      if now >= l.kill_at then begin
        let ev = t.on_deadline l.pu.u l.h in
        remove t l;
        t.slots.kill l.h;
        settle t l.pu ev on_done
      end)
    t.live;
  dispatch t on_done

(** Seconds until the earliest timer: an attempt's deadline, a unit's
    gate, a slot-side timer, or a short tick.  A loop calls this once per
    pass, which is when the slot set's [tick] runs. *)
let timeout t =
  let now = Unix.gettimeofday () in
  let e = List.fold_left (fun e l -> min e l.kill_at) (now +. 0.05) t.live in
  let e =
    Queue.fold
      (fun e p -> if p.not_before > now then min e p.not_before else e)
      e t.queue
  in
  let e = match t.slots.tick () with Some g -> min e g | None -> e in
  Float.max 0.005 (e -. now)

(** Run every added unit to its end, calling [on_done] once per unit as
    it finishes. *)
let run t on_done =
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun l -> t.slots.kill l.h) t.live;
      t.live <- [];
      t.slots.close ();
      Sys.set_signal Sys.sigpipe prev_sigpipe)
    (fun () ->
      dispatch t on_done;
      while not (idle t) do
        let ready, _, _ =
          try Unix.select (fds t) [] [] (timeout t)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        handle t ready on_done
      done)

(* --- local slots: forked children on pipes -------------------------- *)

type child = {
  pid : int;
  ordinal : int;  (** 1-based, in fork order *)
  req_w : Unix.file_descr;
  res_r : Unix.file_descr;
  mutable busy : bool;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A child serves frames until its request pipe hits EOF.  A worker
   factory or per-unit exception becomes an "ex"-prefixed reply: a
   deterministic failure, not retried; only a silent death (EOF without
   a reply) is. *)
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
    match Wire.read_frame req_r with
    | None -> ()
    | Some payload ->
        Wire.write_frame res_w (reply payload);
        loop ()
  in
  loop ()

(** Slots that are forked children, at most [jobs] at once, forked when
    a unit needs one.  A child gets [payload u] over its request pipe
    and answers with [worker ()]'s reply ([worker] runs in the child,
    once, right after the fork), then takes the next unit; a child that
    dies before answering is a [Retry].  A child released while no unit
    is queued retires: its pipes close at once, and a later pass reaps it
    without blocking ([tick]), so a long-lived loop keeps neither zombies
    nor descriptors.  [kill u ordinal] is fault injection: true SIGKILLs
    the child (the [ordinal]th forked) right after [u] is sent to it.
    Also returns the fork count so far. *)
let local ?(kill = fun _ _ -> false) ~jobs ~payload ~worker () =
  let children = ref [] and retired = ref [] and forks = ref 0 in
  let spawn () =
    (* flush first so buffered output is not emitted twice; the child
       closes its siblings' pipes, which would otherwise mask their EOFs *)
    flush stdout;
    flush stderr;
    let req_r, req_w = Unix.pipe () in
    let res_r, res_w = Unix.pipe () in
    incr forks;
    match Unix.fork () with
    | 0 ->
        close_quiet req_w;
        close_quiet res_r;
        List.iter
          (fun c ->
            close_quiet c.req_w;
            close_quiet c.res_r)
          !children;
        (try child_serve req_r res_w worker with _ -> ());
        Unix._exit 0
    | pid ->
        close_quiet req_r;
        close_quiet res_w;
        let c = { pid; ordinal = !forks; req_w; res_r; busy = false } in
        children := c :: !children;
        c
  in
  (* take [c] out of the pool, closing its pipes in the parent: once,
     since a closed descriptor's number may already belong to a newer
     pipe *)
  let detach c =
    children := List.filter (fun c' -> c' != c) !children;
    close_quiet c.req_w;
    close_quiet c.res_r
  in
  let wait pid =
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  let sigkill c = try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> () in
  let kill_child c =
    sigkill c;
    detach c;
    wait c.pid
  in
  let start u =
    match List.find_opt (fun c -> not c.busy) !children with
    | None when List.length !children >= max 1 jobs -> `Full
    | found -> (
        let c = match found with Some c -> c | None -> spawn () in
        c.busy <- true;
        match Wire.write_frame c.req_w (payload u) with
        | () ->
            if kill u c.ordinal then sigkill c;
            `Started c
        | exception Unix.Unix_error _ ->
            kill_child c;
            `Now (Retry ("worker died", 0.)))
  in
  let read c =
    match Wire.read_frame c.res_r with
    | None -> Retry ("worker died", 0.)
    | Some r ->
        let body = String.sub r 2 (String.length r - 2) in
        if String.starts_with ~prefix:"ok" r then Done body else Failed body
  in
  let retire c =
    detach c;
    retired := c.pid :: !retired
  in
  (* nothing queued: retire it now, so it exits while its siblings
     finish, not after them *)
  let release c idle = if idle then retire c else c.busy <- false in
  (* reap the retired children that have exited *)
  let tick () =
    retired :=
      List.filter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _ -> false
          | exception Unix.Unix_error _ -> false)
        !retired;
    None
  in
  let close () =
    (* every pipe first, so the children exit side by side *)
    List.iter retire !children;
    List.iter wait !retired;
    retired := []
  in
  ( {
      start;
      fd = (fun c -> c.res_r);
      read;
      release;
      kill = kill_child;
      tick;
      close;
    },
    fun () -> !forks )
