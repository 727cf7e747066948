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

let pp_kind ppf = function
  | Seg_fault a -> Fmt.pf ppf "segmentation fault at 0x%x" a
  | Out_of_bounds { addr; base; size } ->
      Fmt.pf ppf "heap overflow: 0x%x past block 0x%x(+%d)" addr base size
  | Use_after_free { addr; base } ->
      Fmt.pf ppf "use after free: 0x%x in freed block 0x%x" addr base
  | Double_free a -> Fmt.pf ppf "double free of 0x%x" a
  | Invalid_free a -> Fmt.pf ppf "invalid free of 0x%x" a
  | Global_overflow { addr; global } ->
      Fmt.pf ppf "global buffer overflow: 0x%x past %s" addr global
  | Div_by_zero -> Fmt.string ppf "division by zero"
  | Assert_fail m -> Fmt.pf ppf "assertion failed: %s" m
  | Abort_called m -> Fmt.pf ppf "abort: %s" m
  | Unlock_error a -> Fmt.pf ppf "unlock of unheld mutex 0x%x" a
  | Deadlock tids ->
      Fmt.pf ppf "deadlock (threads %a)" Fmt.(list ~sep:comma int) tids
  | Alloc_error n -> Fmt.pf ppf "allocation of %d words" n

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
