(** Index of all single-bug workloads, for tests and benchmarks. *)

let all : Truth.t list =
  [
    Fig1.workload;
    Counter_race.workload;
    Deadlock.workload;
    Uaf.workload_variant 0;
    Uaf.workload_variant 1;
    Uaf.workload_variant 2;
    Double_free.workload;
    Heap_overflow.workload_tainted;
    Heap_overflow.workload_internal;
    Div_zero.workload;
    Semantic.workload;
    Hash_construct.workload;
    Long_exec.workload_n 50;
    Kvstore.workload;
  ]

let find name =
  match List.find_opt (fun w -> String.equal w.Truth.w_name name) all with
  | Some w -> w
  | None -> invalid_arg (Fmt.str "Workloads.find: unknown workload %s" name)
