(** Input oracles: where [input] instructions get their values.

    Production runs use a seeded pseudo-random oracle (deterministic per
    seed, so tests can regenerate the same crash); replay runs use a
    scripted oracle carrying the exact values the RES solver chose. *)

type t = {
  next : Res_ir.Instr.input_kind -> int;
      (** called once per executed [input], in program order *)
}

(** Deterministic pseudo-random oracle (a splitmix-style generator, stable
    across OCaml versions).  Values are in [0, 0xffff]. *)
val seeded : seed:int -> t

(** A scripted oracle's state: [reads] counts the values handed out so
    far, reads past the end of [values] (which yield [default]) included.
    Setting [reads] moves the script's cursor, which is how a replay
    rewinds its inputs with the rest of the machine. *)
type script = { values : int array; default : int; mutable reads : int }

(** A script at its first value ([default] is 0 unless overridden). *)
val script : ?default:int -> int list -> script

(** The oracle that reads [script] from its cursor. *)
val of_script : script -> t

(** Oracle that replays a fixed list of values and then yields [default]
    (0 unless overridden). *)
val scripted : ?default:int -> int list -> t

(** Oracle returning a constant. *)
val constant : int -> t
