(** deep-chain: one developer, one long execution.

    Long-exec dumps whose loop ran for a seeded n in [50 000, 100 000)
    iterations are analyzed at a depth limit of {!depth} segments, and
    each analysis is followed by a full reverse walk in the debugger over
    the deepest suffix.  The execution length varies with the seed; the
    suffix does not.  Every fifth cycle also triages the dump files at the
    same depth, for [triage_dumps_per_s]. *)

open Res_core

let depth = 60
let executions = 3
let walks_per_sample = 10
let triage_every = 5

(* p90 of the analysis time needs ten samples beyond it, and the triage
   median ten on each side. *)
let min_cycles = 100

let config_at d =
  {
    Res.default_config with
    search = { Res.default_config.search with Search.max_segments = d };
  }

let config = config_at depth
let crash_site = Res_ir.Pc.v ~func:"main" ~block:"work" ~idx:2

(** The developer's question: is the best cause the division by zero at
    the crash site? *)
let found_crash_site (o : Res.outcome) =
  match o with
  | Complete a -> (
      match Res.best_cause a with
      | Some (Rootcause.Division_by_zero_cause { pc }) ->
          Res_ir.Pc.equal pc crash_site
      | _ -> false)
  | Partial _ | Failed _ -> false

type cycle = {
  analyzed : Dev.analyzed;
  analyze_s : float;  (** bytes to rendered report *)
  walk_us : float;  (** per [state_at] query *)
  walk_ok : bool;
  queries : int;
}

(** One dump through the developer's loop, from a compacted heap as in a
    fresh [res analyze] process. *)
let cycle ?layered ?(config = config) dump_id inp =
  Gc.compact ();
  let analyzed, analyze_s =
    Clock.time (fun () -> Dev.analyze ?layered ~config dump_id inp)
  in
  match Dev.session ~dump_id analyzed with
  | None -> { analyzed; analyze_s; walk_us = 0.; walk_ok = false; queries = 0 }
  | Some s ->
      Gc.compact ();
      let walk_us, walk_ok = Dev.walk_sample ~times:walks_per_sample [ s ] in
      {
        analyzed;
        analyze_s;
        walk_us;
        walk_ok;
        queries = walks_per_sample * (Debugger.total_steps s + 1);
      }

type prepared = {
  corpus : Fleet.corpus;
  inputs : Dev.input array;
  reference : cycle array;  (** one untimed cycle per input *)
  setup_s : float;
  notes : string list;
}

let prepare ~reps ~seed ~dir =
  let (entries, dir), setup_s =
    Run_result.setup ~reps ~dir (fun dir ->
        let entries =
          List.map
            (fun n ->
              let w = Res_workloads.Long_exec.workload_n n in
              {
                Gen.name = Printf.sprintf "long-exec-%d.core" n;
                family = "long-exec";
                bug = w.w_bug;
                prog = w.w_prog;
                dump = Res_workloads.Truth.coredump w;
              })
            (Gen.distinct
               (Random.State.make [| seed |])
               executions ~lo:50_000 ~hi:100_000)
        in
        Fleet.save dir entries;
        entries)
  in
  let corpus = Fleet.corpus ~config ~dir entries in
  let inputs =
    Array.of_list
      (List.map
         (fun (e : Gen.entry) ->
           Dev.input_of_file e.prog (Filename.concat dir e.name))
         entries)
  in
  {
    corpus;
    inputs;
    reference = Array.mapi cycle inputs;
    setup_s;
    notes =
      [
        Printf.sprintf "depth=%d executions=%s" depth
          (String.concat ","
             (List.map (fun (e : Gen.entry) -> e.name) entries));
      ];
  }

let good p k (c : cycle) =
  String.equal c.analyzed.report p.reference.(k).analyzed.report
  && found_crash_site c.analyzed.outcome

let run ~seconds p =
  let analyze_s = ref [] and step_us = ref [] and rates = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  Array.iteri (fun k c -> check (good p k c && c.walk_ok)) p.reference;
  let n = float_of_int (Array.length p.inputs) in
  Run_result.loop ~seconds ~min:min_cycles (fun i ->
      let k = i mod Array.length p.inputs in
      let c = cycle k p.inputs.(k) in
      analyze_s := c.analyze_s :: !analyze_s;
      step_us := c.walk_us :: !step_us;
      check (good p k c);
      check c.walk_ok;
      if i mod triage_every = 0 then begin
        let (_, t), dt = Clock.time (fun () -> Fleet.run_pass p.corpus) in
        rates := (n /. dt) :: !rates;
        attempted := !attempted + Array.length p.inputs;
        failed := !failed + Fleet.failures p.corpus t
      end);
  let metrics, scale =
    Run_result.end_to_end ~setup_s:p.setup_s ~analyze_s:!analyze_s
      ~step_us:!step_us ~rates:!rates
  in
  {
    Run_result.correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    metrics;
    notes = p.notes @ [ scale ];
  }

(** The traced run: every input once untraced and once through the
    layered pipeline, which must reproduce the untraced reports and work
    counters; then the node count against depth on the first input. *)
let trace p =
  let untraced = Array.mapi cycle p.inputs in
  let q0 = Res_solver.Solver.queries () in
  let traced =
    Run_result.traced (fun () -> Array.mapi (cycle ~layered:true) p.inputs)
  in
  let queries = Res_solver.Solver.queries () - q0 in
  let failed = ref 0 in
  Array.iteri
    (fun k (c : cycle) ->
      let r = untraced.(k) in
      if not (String.equal c.analyzed.report r.analyzed.report) then
        Run_result.diverged "deep-chain: layered report differs on input %d" k;
      if Pipeline.work c.analyzed.outcome <> Pipeline.work r.analyzed.outcome
      then
        Run_result.diverged
          "deep-chain: layered work counters differ on input %d" k;
      if not (good p k c && c.walk_ok) then incr failed)
    traced;
  let cost a =
    Array.fold_left
      (fun acc c ->
        acc +. c.analyze_s +. (c.walk_us *. float_of_int c.queries *. 1e-6))
      0. a
  in
  let nodes_at d =
    let a = Dev.analyze ~config:(config_at d) 0 p.inputs.(0) in
    if not (found_crash_site a.outcome) then
      Run_result.diverged "deep-chain: depth %d missed the crash site" d;
    float_of_int (Res.analysis a.outcome).nodes_expanded
  in
  {
    Run_result.correct = !failed = 0;
    attempted = Array.length traced;
    failed = !failed;
    metrics =
      Run_result.layer_metrics ~solver_queries:queries
        ~state_queries:(Array.fold_left (fun a c -> a + c.queries) 0 traced)
      @ [
        ("trace.overhead_frac", (cost traced /. cost untraced) -. 1.);
        ("search.nodes_d25", nodes_at 25);
        ("search.nodes_d50", nodes_at 50);
        ("search.nodes_d100", nodes_at 100);
      ];
    notes = p.notes;
  }
