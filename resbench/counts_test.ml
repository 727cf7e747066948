(** Every count metric of the traced run must repeat exactly: twice at one
    seed for every workload, and the node count against depth
    ([search.nodes_d*]) across two seeds, since suffix work does not depend
    on the execution's length.  Exits non-zero on any difference. *)

let counts =
  List.filter_map
    (fun (name, unit) ->
      (* GC collections depend on the heap the run starts from. *)
      if unit = "count" && name <> "gc.major_collections" then Some name
      else None)
    Bench.per_layer

let traced name seed =
  let dir =
    Printf.sprintf ".resbench/counts-%s-%d-%d" name seed (Unix.getpid ())
  in
  Fun.protect
    ~finally:(fun () -> Run_result.rm_rf dir)
    (fun () ->
      Run_result.mkdir_p dir;
      Bench.workload name ~seed ~seconds:0. ~trace:true ~dir)

let failures = ref 0

let expect_same what (a : Run_result.t) (b : Run_result.t) names =
  List.iter
    (fun m ->
      let va = List.assoc_opt m a.metrics and vb = List.assoc_opt m b.metrics in
      if va <> vb then begin
        incr failures;
        Printf.printf "FAIL %s: %s differs (%s vs %s)\n" what m
          (Option.fold ~none:"-" ~some:string_of_float va)
          (Option.fold ~none:"-" ~some:string_of_float vb)
      end)
    names

let () =
  let runs =
    List.map
      (fun w ->
        let a = traced w 1 and b = traced w 1 in
        if not (a.correct && b.correct) then begin
          incr failures;
          Printf.printf "FAIL %s: traced run not correct\n" w
        end;
        expect_same (w ^ " at seed 1") a b counts;
        Printf.printf "%s: %d count metrics checked\n" w (List.length counts);
        (w, a))
      [ "deep-chain"; "corpus-triage"; "retriage" ]
  in
  let curve = [ "search.nodes_d25"; "search.nodes_d50"; "search.nodes_d100" ] in
  let deep = List.assoc "deep-chain" runs in
  expect_same "deep-chain seeds 1 and 2" deep (traced "deep-chain" 2) curve;
  List.iter
    (fun m ->
      if List.assoc_opt m deep.metrics = Some 0. then begin
        incr failures;
        Printf.printf "FAIL deep-chain: %s is zero\n" m
      end)
    curve;
  Printf.printf "%s\n" (if !failures = 0 then "ok" else "FAILED");
  exit (if !failures = 0 then 0 else 1)
