(** Bug-report corpus for the triaging experiment (paper §3.1, E4).

    A few distinct root causes each produce many failure reports whose
    crash stacks vary (input-selected accessors and call paths), plus a
    pair of distinct bugs that crash with {e identical} stacks.  This is
    the WER failure mode mix: stack-hash bucketing both fragments single
    bugs and merges distinct ones. *)

(** One bug report: the coredump plus (hidden) ground truth. *)
type report = {
  r_id : int;
  r_bug : string;  (** ground-truth bug identifier *)
  r_prog : Res_ir.Prog.t;
  r_dump : Res_vm.Coredump.t;
}

(* Two distinct bugs that fail at the *same* assert with the same stack:
   D1 corrupts the balance via an unsynchronized concurrent update; D2 is a
   sequential sign bug.  A stack-hash triager cannot tell them apart. *)

let same_stack_race_src =
  {|
global balance 1

func main() {
entry:
  r0 = spawn depositor()
  r1 = spawn depositor()
  join r0
  join r1
  jmp verify
verify:
  r2 = global balance
  r3 = load r2[0]
  r4 = const 20
  r5 = eq r3, r4
  assert r5, "balance consistent"
  halt
}

func depositor() {
entry:
  r0 = global balance
  r1 = load r0[0]
  jmp apply
apply:
  r2 = const 10
  r3 = add r1, r2
  store r0[0] = r3
  ret
}
|}

let same_stack_sign_src =
  {|
global balance 1

func main() {
entry:
  r0 = global balance
  r1 = const 10
  r2 = const 30
  r3 = sub r1, r2
  store r0[0] = r3
  jmp verify
verify:
  r2 = global balance
  r3 = load r2[0]
  r4 = const 20
  r5 = eq r3, r4
  assert r5, "balance consistent"
  halt
}
|}

let same_stack_race = Res_ir.Validate.check_exn (Res_ir.Parser.parse same_stack_race_src)
let same_stack_sign = Res_ir.Validate.check_exn (Res_ir.Parser.parse same_stack_sign_src)

let dump_of prog config =
  match Res_vm.Exec.run_to_coredump ~config prog with
  | Some dump, _ -> Some dump
  | None, _ -> None

(** Generate the corpus.  [n_per_bug] reports are drawn per root cause
    where variation is available. *)
let generate ?(n_per_bug = 4) () =
  let reports = ref [] in
  let next_id = ref 0 in
  let add r_bug r_prog dump =
    incr next_id;
    reports := { r_id = !next_id; r_bug; r_prog; r_dump = dump } :: !reports
  in
  (* Bug 1: the UAF, crashing through each accessor variant. *)
  List.iter
    (fun variant ->
      let w = Uaf.workload_variant (variant mod 3) in
      add "uaf-early-free" w.Truth.w_prog (Truth.coredump w))
    (List.init n_per_bug Fun.id);
  (* Bug 2: the heap overflow, via both call paths (tainted index varies). *)
  List.iteri
    (fun i variant ->
      let config =
        {
          (Res_vm.Exec.default_config ()) with
          oracle =
            Res_vm.Oracle.scripted
              (if variant then [ 1; 4 + (i mod 3) ] else [ 0 ]);
        }
      in
      match dump_of Heap_overflow.prog config with
      | Some dump -> add "overflow-write-cell" Heap_overflow.prog dump
      | None -> ())
    (List.init n_per_bug (fun i -> i mod 2 = 0));
  (* Bug 3: the lost-update race on the balance (same stack as bug 4). *)
  List.iter
    (fun i ->
      let config =
        {
          (Res_vm.Exec.default_config ()) with
          sched =
            Res_vm.Sched.create
              (Res_vm.Sched.Fixed
                 (if i mod 2 = 0 then [ 0; 1; 2; 1; 2; 0; 0 ]
                  else [ 0; 2; 1; 2; 1; 0; 0 ]));
        }
      in
      match dump_of same_stack_race config with
      | Some dump -> add "balance-race" same_stack_race dump
      | None -> ())
    (List.init n_per_bug Fun.id);
  (* Bug 4: the sign bug, identical crash stack to bug 3. *)
  (match dump_of same_stack_sign (Res_vm.Exec.default_config ()) with
  | Some dump -> add "balance-sign" same_stack_sign dump
  | None -> ());
  (* Bug 5: division by zero (distinct family, sanity anchor). *)
  (let w = Div_zero.workload in
   add "scale-div0" w.Truth.w_prog (Truth.coredump w));
  List.rev !reports
