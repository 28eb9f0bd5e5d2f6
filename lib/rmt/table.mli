(** Match/action tables (§3.1).

    A table is installed at a kernel decision point.  It declares which
    execution-context fields it matches on (e.g. key 0 = pid); each entry
    carries one pattern per field, a priority, and an action.  Lookup reads
    the declared fields from the {!Ctxt}, selects the highest-priority
    matching entry (insertion order breaks ties), and runs its action.
    Entries are inserted at runtime through the control plane (the paper's
    entries are "statically encoded in the RMT program or dynamically
    inserted or removed via an API at runtime"; nothing here removes one).

    Lookup scans the entries in priority order and stops at the first
    match, so its cost grows with the entry count; the tables the
    experiments and the serving plane build hold at most a dozen entries.
    Field reads go through a preallocated scratch buffer, so matching
    allocates nothing and performs exactly one {!Ctxt.get} per match key. *)

type pattern =
  | Any
  | Eq of int
  | Mask of { value : int; mask : int }  (** matches when [field land mask = value land mask] *)
  | Between of int * int                 (** inclusive range *)

type action =
  | Run of Vm.t           (** execute a loaded RMT program; result = r0 *)
  | Const of int          (** constant action result *)
  | Host of (Ctxt.t -> int)  (** host-native action (tests, baselines) *)

type entry_id
type t

val create : name:string -> match_keys:int array -> default:action -> t
(** [match_keys] are the ctxt keys this table matches on. *)

val name : t -> string
val match_keys : t -> int array
val insert : t -> ?priority:int -> patterns:pattern array -> action -> entry_id
(** Default priority 0; higher wins.  Raises [Invalid_argument] if the
    pattern arity differs from the table's match keys. *)

val entry_count : t -> int
val lookup_batch : t -> Batch.t -> now:(unit -> int) -> unit
(** Match and run the action for slots [0 .. b.n - 1]; a slot with no
    matching entry runs the default action.  Matching is resolved per
    slot, then — when every slot lands on the same [Run] action (the
    common case for learned tables) — the whole batch runs through one
    {!Vm.invoke_batch}, amortizing model inference and dispatch.  Mixed
    batches run each slot's action on its own ({!Vm.invoke_slot} for
    [Run]).  Engine traps are contained into the slot's [traps] column
    either way; exceptions from [Host] actions propagate.

    A slot whose [traps] marker is already set on entry is skipped — not
    matched, counted or run — so a trap in an earlier table of the same
    hook stays visible; {!Pipeline.fire_batch} clears the markers before
    a hook's first table. *)

val lookup_entry : t -> ctxt:Ctxt.t -> entry_id option
(** Which entry would fire, without running its action. *)

val hits : t -> int
val default_hits : t -> int
(** Lookups that fell through to the default action. *)

val entry_hits : t -> entry_id -> int
val clear : t -> unit
val pattern_matches : pattern -> int -> bool
val pp : Format.formatter -> t -> unit
