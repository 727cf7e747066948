(** The fleet kit shared by the fork-backed soak campaigns: a scratch
    directory that is always removed, a failure collector, forked daemons
    and nodes, one readiness poll, one reap, and the generated corpus.
    The kit's own failures (a node never ready, a bad drain) end every
    campaign's summary as one last run, [fleet].

    Every process [spawn] starts is remembered until it is reaped or
    killed here; whatever is still running when [with_kit] returns (or
    raises) is SIGKILLed and reaped before the scratch tree is removed. *)

type t = {
  dir : string;  (** scratch directory, removed with everything under it *)
  log : string -> unit;
  mutable failures : string list;  (** newest first *)
  mutable pids : int list;  (** spawned and not yet reaped *)
}

(** Record a failure (and log it). *)
let fail k fmt =
  Fmt.kstr
    (fun m ->
      k.log m;
      k.failures <- m :: k.failures)
    fmt

(** The failures recorded since the last [take], oldest first. *)
let take k =
  let fs = List.rev k.failures in
  k.failures <- [];
  fs

(** [s] with the kit's untaken failures appended as one last check run. *)
let close k (s : Differential.summary) =
  Differential.summarize ~campaign:s.campaign ~variants:s.variants
    (s.runs @ [ Differential.check ~name:"fleet" (take k) ])

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let forget k pid = k.pids <- List.filter (( <> ) pid) k.pids

(** SIGKILL [pid] and reap it. *)
let kill k pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  forget k pid

(** Run [f] with a fresh kit whose scratch directory is
    [<tmp>/<name>-<pid>]; on return or exception, kill what is still
    running and remove the directory tree. *)
let with_kit ?(log = ignore) name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let k = { dir; log; failures = []; pids = [] } in
  Fun.protect
    ~finally:(fun () ->
      List.iter (kill k) k.pids;
      rm_rf dir)
    (fun () -> f k)

(** Fork a child running [f]; it exits 0 when [f] returns, 1 if it
    raises. *)
let spawn k f =
  match Unix.fork () with
  | 0 ->
      (try f () with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      k.pids <- pid :: k.pids;
      pid

(** Fork a [Res_serve.Server] daemon.  A prebound socket is closed in the
    parent so a killed daemon's port refuses connects instead of silently
    queueing them. *)
let fork_daemon k (cfg : Res_serve.Server.config) =
  let pid = spawn k (fun () -> Res_serve.Server.run cfg) in
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    cfg.Res_serve.Server.prebound;
  pid

(** Fork a node daemon on an ephemeral localhost port. *)
let fork_node k cfg =
  let fd, addr = Res_serve.Client.listen_ephemeral () in
  let pid = fork_daemon k { cfg with Res_serve.Server.prebound = Some fd } in
  (pid, addr)

(** Poll [ready] every [every] seconds until it holds (true) or [timeout]
    seconds pass (false). *)
let await ?(timeout = 10.) ?(every = 0.02) ready =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    ready ()
    || Unix.gettimeofday () <= deadline
       && begin
            Unix.sleepf every;
            go ()
          end
  in
  go ()

(** Poll a node until it answers a ping; a failure if it never does. *)
let node_ready k addr =
  if not (await (fun () -> Res_serve.Client.alive addr)) then
    fail k "node %s never became ready" (Res_serve.Client.addr_to_string addr)

(** Wait up to 30s for [pid] (sent [signal] first, if given) to exit 0.
    Any other exit is a failure; a process still running at the deadline
    is SIGKILLed. *)
let reap k ?signal name pid =
  Option.iter
    (fun s -> try Unix.kill pid s with Unix.Unix_error _ -> ())
    signal;
  let status = ref None in
  let exited () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _, st -> status := Some st);
    !status <> None
  in
  ignore (await ~timeout:30. ~every:0.05 exited);
  match !status with
  | None ->
      kill k pid;
      fail k "%s did not drain within 30s" name;
      false
  | Some (Unix.WEXITED 0) ->
      forget k pid;
      true
  | Some st ->
      forget k pid;
      fail k "%s drain exit: %s" name
        (match st with
        | Unix.WEXITED c -> Fmt.str "exit %d" c
        | Unix.WSIGNALED c -> Fmt.str "signal %d" c
        | Unix.WSTOPPED c -> Fmt.str "stopped %d" c);
      false

(** The generated corpus, [n_per_bug] reports per bug, as batch items
    (the input of both [Batch.run] and [Coordinator.run]). *)
let corpus ~n_per_bug =
  List.map
    (fun (r : Res_workloads.Corpus.report) ->
      {
        Res_parallel.Batch.it_name = Fmt.str "%s-%02d" r.r_bug r.r_id;
        it_prog = r.r_prog;
        it_dump = Ok r.r_dump;
      })
    (Res_workloads.Corpus.generate ~n_per_bug ())
