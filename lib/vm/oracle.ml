(** Input oracles: where [input] instructions get their values.

    Production runs use a seeded pseudo-random oracle (deterministic per
    seed, so tests can regenerate the same crash); replay runs use a
    scripted oracle carrying the exact values the RES solver chose. *)

type t = {
  next : Res_ir.Instr.input_kind -> int;
      (** called once per executed [input], in program order *)
}

(** Deterministic pseudo-random oracle.  A thin splitmix-style generator —
    not [Random] — so results are stable across OCaml versions. *)
let seeded ~seed =
  let state = ref (seed lxor 0x1e3779b97f4a7c15) in
  let next _kind =
    let z = !state + 0x1e3779b97f4a7c15 in
    state := z;
    let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
    let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
    (z lxor (z lsr 31)) land 0xffff
  in
  { next }

(** A scripted oracle's state: [reads] counts the values handed out,
    reads past the end of [values] (which yield [default]) included. *)
type script = { values : int array; default : int; mutable reads : int }

let script ?(default = 0) values =
  { values = Array.of_list values; default; reads = 0 }

let of_script s =
  let next _kind =
    let i = s.reads in
    s.reads <- i + 1;
    if i < Array.length s.values then s.values.(i) else s.default
  in
  { next }

(** Oracle that replays a fixed list of values and then yields [default]. *)
let scripted ?default values = of_script (script ?default values)

(** Oracle returning a constant. *)
let constant v = { next = (fun _ -> v) }
