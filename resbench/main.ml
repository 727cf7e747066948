(** The benchmark driver:

    {v main.exe --workload NAME --seed N --seconds S --trace 0|1 v}

    sets up the workload's inputs from the seed under [.resbench/] in the
    current directory, measures for [S] seconds (untraced) or runs the
    traced pass ([--trace 1]), checks every output, and prints one JSON
    object as its last line of output.  See README.md. *)

(* A per-layer metric a workload does not report belongs to a layer it
   bypasses, and reads 0; every end-to-end metric must be measured. *)
let json ~traced (r : Run_result.t) =
  let declared = if traced then Bench.per_layer else Bench.end_to_end in
  let value name =
    match List.assoc_opt name r.metrics with
    | Some v -> v
    | None when traced -> 0.
    | None -> failwith ("unmeasured metric " ^ name)
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then
        failwith ("undeclared metric " ^ name))
    r.metrics;
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            let v = value name in
            if not (Float.is_finite v) then
              failwith ("metric " ^ name ^ " is not a finite number");
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v
              unit)
          declared))

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME deep-chain | corpus-triage | retriage");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let root = ".resbench" in
  let dir =
    Filename.concat root (Printf.sprintf "%s-%d" !name (Unix.getpid ()))
  in
  let traced = !trace = 1 in
  match
    Fun.protect
      ~finally:(fun () -> Run_result.rm_rf dir)
      (fun () ->
        Run_result.mkdir_p dir;
        Bench.workload !name ~seed:!seed ~seconds:(float_of_int !seconds)
          ~trace:traced ~dir)
  with
  | r ->
      if traced then
        Span.write
          (Filename.concat root
             (Printf.sprintf "spans-%s-seed%d.tsv" !name !seed));
      Printf.printf "# resbench workload=%s seed=%d seconds=%d trace=%d %s\n"
        !name !seed !seconds !trace
        (String.concat " " r.notes);
      print_endline (json ~traced r)
  | exception Run_result.Diverged msg ->
      prerr_endline ("resbench: traced run diverged: " ^ msg);
      exit 1
