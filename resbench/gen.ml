(** Seeded input generators.  The seed fixes every input; the program
    under test sees only the generated programs and dump files.

    Triage corpora are stratified: every hand-written crash family gets
    the same number of dumps, and the seed picks each dump's variant
    (input, schedule, loop length) and its place in the corpus.  Equal
    quotas keep the amount of work per corpus the same across seeds, so a
    seed changes which dumps are analyzed, not how much work there is. *)

open Res_workloads

(** One generated dump, labelled with the bug the generator planted. *)
type entry = {
  name : string;  (** file name; batch triage sorts rows by it *)
  family : string;
  bug : Truth.bug_class;
  prog : Res_ir.Prog.t;
  dump : Res_vm.Coredump.t;
}

let of_workload (w : Truth.t) = (w.w_prog, w.w_crash_config ())

let with_schedule prog sched =
  ( prog,
    {
      (Res_vm.Exec.default_config ()) with
      sched = Res_vm.Sched.create (Res_vm.Sched.Fixed sched);
    } )

(** The crash families: name, planted bug, and a seeded variant picker
    returning the program and the configuration that crashes it.  The
    long-exec family, with a loop length from [50, 60), deepens to the
    triage depth cap without finding a definite cause.  Like a real
    fleet's, the corpus holds a few dozen distinct crashes, each many
    times. *)
let families =
  let fixed w _ = of_workload w in
  [
    ("fig1", Truth.B_buffer_overflow, fixed Fig1.workload);
    ("counter-race", Truth.B_atomicity, fixed Counter_race.workload);
    ("deadlock", Truth.B_deadlock, fixed Deadlock.workload);
    ( "uaf",
      Truth.B_use_after_free,
      fun rng -> of_workload (Uaf.workload_variant (Random.State.int rng 3)) );
    ("double-free", Truth.B_double_free, fixed Double_free.workload);
    ( "heap-overflow",
      Truth.B_buffer_overflow,
      fun rng ->
        of_workload
          (if Random.State.bool rng then Heap_overflow.workload_tainted
           else Heap_overflow.workload_internal) );
    ("div-by-zero", Truth.B_div_by_zero, fixed Div_zero.workload);
    ("semantic", Truth.B_semantic, fixed Semantic.workload);
    ("hash-construct", Truth.B_semantic, fixed Hash_construct.workload);
    ( "long-exec",
      Truth.B_div_by_zero,
      fun rng ->
        of_workload (Long_exec.workload_n (50 + Random.State.int rng 10)) );
    ("kvstore", Truth.B_atomicity, fixed Kvstore.workload);
    ( "balance-race",
      Truth.B_data_race,
      fun rng ->
        with_schedule Corpus.same_stack_race
          (if Random.State.bool rng then [ 0; 1; 2; 1; 2; 0; 0 ]
           else [ 0; 2; 1; 2; 1; 0; 0 ]) );
    ( "balance-sign",
      Truth.B_semantic,
      fun _ -> (Corpus.same_stack_sign, Res_vm.Exec.default_config ()) );
  ]

let crash (prog, config) =
  match Res_vm.Exec.run_to_coredump ~config prog with
  | Some dump, _ -> (prog, dump)
  | None, _ -> failwith "generated program did not crash"

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(** [per_family] dumps of every family, in seeded order. *)
let corpus rng ~per_family =
  let slots =
    Array.of_list
      (List.concat_map (fun f -> List.init per_family (fun _ -> f)) families)
  in
  shuffle rng slots;
  Array.to_list
    (Array.mapi
       (fun i (fam, bug, pick) ->
         let prog, dump = crash (pick rng) in
         {
           name = Printf.sprintf "%05d-%s.core" i fam;
           family = fam;
           bug;
           prog;
           dump;
         })
       slots)

(** [k] distinct values drawn from [lo, hi). *)
let distinct rng k ~lo ~hi =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let v = lo + Random.State.int rng (hi - lo) in
      go (if List.mem v acc then acc else v :: acc)
  in
  go []

(** Content-new dumps for re-triage: long executions whose loop lengths,
    from [1000, 5000), no {!corpus} dump uses, so their program and dump
    bytes — and hence their cache keys — are new. *)
let fresh_long_execs rng k =
  List.mapi
    (fun i n ->
      let prog, dump = crash (of_workload (Long_exec.workload_n n)) in
      {
        name = Printf.sprintf "%05d-new-long-exec-%d.core" i n;
        family = "new-long-exec";
        bug = Truth.B_div_by_zero;
        prog;
        dump;
      })
    (distinct rng k ~lo:1000 ~hi:5000)

(** Root-cause signature prefixes that agree with a planted bug.  Data
    races and atomicity violations share the [concurrency:] family, as
    {!Truth.matches} allows. *)
let agrees bug bucket =
  let has p =
    String.length bucket >= String.length p
    && String.equal (String.sub bucket 0 (String.length p)) p
  in
  match (bug : Truth.bug_class) with
  | B_data_race | B_atomicity -> has "concurrency:"
  | B_use_after_free -> has "uaf:"
  | B_buffer_overflow -> has "overflow:"
  | B_double_free -> has "double-free:"
  | B_deadlock -> has "deadlock:"
  | B_div_by_zero -> has "div0:"
  | B_semantic -> has "assert:" || has "abort:"
  | B_hardware -> false
