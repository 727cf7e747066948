(** Node health registry: the coordinator's view of which nodes are
    worth talking to.

    Health is inferred purely from exchange outcomes — there is no
    heartbeat protocol to get wrong.  Consecutive failures gate a node
    behind capped exponential backoff ([Backing_off]; by default the
    {!Res_parallel.Supervisor}'s one pair); [attempts] consecutive
    failures declare it [Dead] for the rest of the run (a corpus run is
    finite — a node that came back would be picked up by the next run).
    Any success snaps the node back to [Up] and resets its failure
    streak.

    Mirrors the per-workload circuit breaker on the node side: breakers
    protect a node from poisonous workloads, the registry protects the
    coordinator from poisonous nodes. *)

module Supervisor = Res_parallel.Supervisor

type state = Up | Backing_off | Dead

let state_name = function
  | Up -> "up"
  | Backing_off -> "backoff"
  | Dead -> "dead"

type node = {
  nd_addr : Res_serve.Client.addr;
  mutable nd_state : state;
  mutable nd_streak : int;  (** consecutive failures *)
  mutable nd_failures : int;  (** total failed exchanges *)
  mutable nd_completed : int;  (** units this node answered *)
  mutable nd_not_before : float;  (** backoff gate for the next dispatch *)
}

type t = {
  nodes : node array;
  attempts : int;  (** consecutive failures before [Dead] *)
  base : float;
  cap : float;
}

let create ?(attempts = 3) ?(backoff_base = Supervisor.backoff_base)
    ?(backoff_cap = Supervisor.backoff_cap) addrs =
  {
    nodes =
      Array.of_list
        (List.map
           (fun a ->
             {
               nd_addr = a;
               nd_state = Up;
               nd_streak = 0;
               nd_failures = 0;
               nd_completed = 0;
               nd_not_before = 0.;
             })
           addrs);
    attempts = max 1 attempts;
    base = backoff_base;
    cap = backoff_cap;
  }

let count t = Array.length t.nodes
let node t i = t.nodes.(i)
let addr t i = t.nodes.(i).nd_addr

let mark_failure t i ~now =
  let n = t.nodes.(i) in
  n.nd_streak <- n.nd_streak + 1;
  n.nd_failures <- n.nd_failures + 1;
  if n.nd_streak >= t.attempts then n.nd_state <- Dead
  else begin
    n.nd_state <- Backing_off;
    n.nd_not_before <-
      now +. Supervisor.backoff_delay ~base:t.base ~cap:t.cap (n.nd_streak - 1)
  end

let mark_success t i =
  let n = t.nodes.(i) in
  n.nd_state <- Up;
  n.nd_streak <- 0;
  n.nd_completed <- n.nd_completed + 1

(** May the coordinator try this node now?  A backing-off node becomes
    eligible again once its gate passes (its state flips back to [Up]
    only on success). *)
let available t i ~now =
  let n = t.nodes.(i) in
  n.nd_state <> Dead && n.nd_not_before <= now

let all_dead t = Array.for_all (fun n -> n.nd_state = Dead) t.nodes

let dead_count t =
  Array.fold_left (fun acc n -> if n.nd_state = Dead then acc + 1 else acc) 0 t.nodes

(** The earliest backoff gate among live, gated nodes — what the
    dispatch loop sleeps toward when every live node is backing off. *)
let next_gate t =
  Array.fold_left
    (fun acc n ->
      if n.nd_state = Backing_off then
        Some (match acc with Some g -> min g n.nd_not_before | None -> n.nd_not_before)
      else acc)
    None t.nodes

(** Per-node health for status reporting: address, state name, units
    completed, failed exchanges. *)
let report t =
  Array.to_list t.nodes
  |> List.map (fun n ->
         (Res_serve.Client.addr_to_string n.nd_addr, state_name n.nd_state,
          n.nd_completed, n.nd_failures))
