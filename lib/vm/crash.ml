(** Failure kinds.

    Everything whose state "can be snapshotted in a coredump" (paper §2):
    memory-safety violations, traps, assertion failures, aborts, lock
    misuse, and deadlocks. *)

type kind =
  | Seg_fault of int  (** access to an unmapped address *)
  | Out_of_bounds of { addr : int; base : int; size : int }
      (** heap access past the end of an allocation *)
  | Use_after_free of { addr : int; base : int }
  | Double_free of int
  | Invalid_free of int  (** free of a non-allocation address *)
  | Global_overflow of { addr : int; global : string }
      (** access to the guard word of a global (Fig. 1's buffer overflow) *)
  | Div_by_zero
  | Assert_fail of string
  | Abort_called of string
  | Unlock_error of int  (** unlock of a mutex the thread does not hold *)
  | Deadlock of int list  (** every live thread blocked; the tids *)
  | Alloc_error of int  (** allocation with non-positive size *)

(** A crash: what happened, in which thread, at which program counter. *)
type t = { kind : kind; tid : int; pc : Res_ir.Pc.t }

(** [add_kind ~sep b k] appends the text of [k] to [b]; [sep] separates a
    deadlock's tids. *)
let add_kind ~sep b = function
  | Seg_fault a -> Printf.bprintf b "segmentation fault at 0x%x" a
  | Out_of_bounds { addr; base; size } ->
      Printf.bprintf b "heap overflow: 0x%x past block 0x%x(+%d)" addr base size
  | Use_after_free { addr; base } ->
      Printf.bprintf b "use after free: 0x%x in freed block 0x%x" addr base
  | Double_free a -> Printf.bprintf b "double free of 0x%x" a
  | Invalid_free a -> Printf.bprintf b "invalid free of 0x%x" a
  | Global_overflow { addr; global } ->
      Printf.bprintf b "global buffer overflow: 0x%x past %s" addr global
  | Div_by_zero -> Buffer.add_string b "division by zero"
  | Assert_fail m -> Printf.bprintf b "assertion failed: %s" m
  | Abort_called m -> Printf.bprintf b "abort: %s" m
  | Unlock_error a -> Printf.bprintf b "unlock of unheld mutex 0x%x" a
  | Deadlock tids ->
      Buffer.add_string b "deadlock (threads ";
      List.iteri
        (fun i tid ->
          if i > 0 then Buffer.add_string b sep;
          Buffer.add_string b (string_of_int tid))
        tids;
      Buffer.add_char b ')'
  | Alloc_error n -> Printf.bprintf b "allocation of %d words" n

(** [add ~sep b t] appends "thread T at PC: KIND" to [b]. *)
let add ~sep b t =
  Printf.bprintf b "thread %d at %s: " t.tid (Res_ir.Pc.to_string t.pc);
  add_kind ~sep b t.kind

let pp_kind ppf = function
  | Deadlock tids ->
      (* the tid separator is a break hint, so a box decides the line *)
      Fmt.pf ppf "deadlock (threads %a)" Fmt.(list ~sep:comma int) tids
  | k ->
      let b = Buffer.create 64 in
      add_kind ~sep:"" b k;
      Fmt.string ppf (Buffer.contents b)

let pp ppf t =
  Fmt.pf ppf "thread %d at %a: %a" t.tid Res_ir.Pc.pp t.pc pp_kind t.kind

(** Coarse family of a crash kind — what a naive triager keys on. *)
let kind_family = function
  | Seg_fault _ -> "segfault"
  | Out_of_bounds _ -> "heap-overflow"
  | Use_after_free _ -> "use-after-free"
  | Double_free _ -> "double-free"
  | Invalid_free _ -> "invalid-free"
  | Global_overflow _ -> "global-overflow"
  | Div_by_zero -> "div-by-zero"
  | Assert_fail _ -> "assert"
  | Abort_called _ -> "abort"
  | Unlock_error _ -> "unlock-error"
  | Deadlock _ -> "deadlock"
  | Alloc_error _ -> "alloc-error"
