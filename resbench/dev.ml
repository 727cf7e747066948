(** The developer's loop over one dump: from its bytes to a rendered
    report, then a reverse walk in the debugger over the best suffix.
    Every workload reports [analyze_s_*] and [debug_step_us_p50] from
    these steps, on its own dumps. *)

open Res_core

type input = { prog : Res_ir.Prog.t; bytes : string }

let input_of_file prog path =
  match Res_vm.Coredump_io.read_file path with
  | Ok bytes -> { prog; bytes }
  | Error e -> failwith (Res_vm.Coredump_io.dump_error_to_string e)

let decode ~dump_id bytes =
  Span.run ~dump:dump_id "coredump_io.decode" (fun () ->
      match Res_vm.Coredump_io.of_string_result bytes with
      | Ok l -> l.Res_vm.Coredump_io.dump
      | Error e -> failwith (Res_vm.Coredump_io.dump_error_to_string e))

type analyzed = {
  ctx : Backstep.ctx;
  dump : Res_vm.Coredump.t;
  outcome : Res.outcome;
  report : string;
}

(** Decode, build the context, analyze, render.  [layered] swaps
    {!Res.analyze} for the span-recording {!Pipeline.analyze}. *)
let analyze ?(layered = false) ~config dump_id inp =
  Res_solver.Expr.reset_counter_for_tests ();
  Span.run ~dump:dump_id "dev.analysis" (fun () ->
      let dump = decode ~dump_id inp.bytes in
      let ctx =
        Span.run ~dump:dump_id "backstep.make_ctx" (fun () ->
            Backstep.make_ctx inp.prog)
      in
      let outcome =
        if layered then Pipeline.analyze ~dump_id ~config ctx dump
        else Res.analyze ~config ctx dump
      in
      let report =
        Span.run ~dump:dump_id "report.render" (fun () ->
            Report.report_list_to_string ctx (Res.analysis outcome))
      in
      { ctx; dump; outcome; report })

(** Open the debugger on the best suffix and build its snapshot index. *)
let session ~dump_id a =
  Span.run ~dump:dump_id "debugger.open" (fun () ->
      match (Res.analysis a.outcome).reports with
      | [] -> None
      | r :: _ -> (
          match Debugger.start a.ctx r.suffix a.dump with
          | Error _ -> None
          | Ok s ->
              ignore (Debugger.state_at s (Debugger.total_steps s));
              Some s))

(** [times] full reverse walks over every session: [state_at] from the
    last step down to step 0.  Returns the number of queries and whether
    every state was the one asked for. *)
let walks ~times sessions =
  Span.run "debugger.state_at" (fun () ->
      let ok = ref true and queries = ref 0 in
      for _ = 1 to times do
        List.iter
          (fun s ->
            for k = Debugger.total_steps s downto 0 do
              incr queries;
              if (Debugger.state_at s k).Res_vm.Exec.steps <> k then ok := false
            done)
          sessions
      done;
      (!queries, !ok))

(** Per-query latency of one batch of walks, in microseconds. *)
let walk_sample ~times sessions =
  let (queries, ok), dt = Clock.time (fun () -> walks ~times sessions) in
  (dt *. 1e6 /. float_of_int (max 1 queries), ok)
