(** Control-flow graphs and whole-program call/spawn indexes.

    RES navigates the CFG {e backward}; the predecessor map is the
    load-bearing structure.  The call-site and spawn-site indexes let the
    backward walk continue past a function entry (to the exact caller
    block) and past a thread entry (to the spawning thread's block). *)

(** A call or spawn site: function, block, and instruction index. *)
type site = { in_func : string; in_block : Instr.label; at_idx : int }

type t

(** Build the CFG and site indexes for a whole program.
    @raise Invalid_argument when a terminator branches to a block that
    does not exist — such a program fails {!Validate.check}, and building
    a silently truncated predecessor map for it would poison every
    analysis downstream. *)
val of_prog : Prog.t -> t

(** Intra-function successors of a block.
    @raise Invalid_argument on unknown function or block. *)
val successors : t -> func:string -> label:Instr.label -> Instr.label list

(** Intra-function predecessors of a block — the candidate set RES
    enumerates at each backward step (Fig. 1's [Pred1]/[Pred2]).
    @raise Invalid_argument on unknown function or block. *)
val predecessors : t -> func:string -> label:Instr.label -> Instr.label list

(** Sites that call the function, empty if never called. *)
val call_sites_of : t -> string -> site list

(** Sites that spawn a thread running the function, empty if never
    spawned. *)
val spawn_sites_of : t -> string -> site list
