(** Execution context ([RMT_CTXT], §3.1): the key/value view of kernel
    monitoring state that table matches and actions read.

    Keys are small integers assigned by the hook that fires the pipeline
    (e.g. key 0 = pid, key 1 = faulting page, keys 8.. = recent access
    deltas).  Reads of absent keys return 0, making verified programs
    total.  A per-context read counter supports the lean-monitoring
    experiments: it counts exactly how many monitor words each invocation
    consumed.

    The store is a flat open-addressed int->int table with a dense fast
    path for small keys (the common hook key range): dense [get]/[set] is
    an array access, sparse keys fall back to linear probing.  No operation
    on an existing binding allocates, which keeps the VM datapath
    allocation-free in steady state. *)

type t

val create : unit -> t
val set : t -> int -> int -> unit
(** Raises [Invalid_argument] on a negative key. *)

val get : t -> int -> int
(** 0 when absent. *)

val dense_bound : int
(** Keys in [0, dense_bound) live on the dense fast path.  Hooks that
    pick their own context keys assert they stay below it. *)

val reads : t -> int
(** Number of [get] key reads since the context was created. *)

val watch : name:string -> t -> unit
(** Registers a registry view [rmt.ctxt.<name>.reads] over this
    context's read counter (via {!reads} — the counter itself does not
    move), so [rkdctl stats] reports it next to the striped counters.
    Re-watching a name rebinds the view to the new context. *)

val copy : t -> t
(** Deep copy: the clone shares no mutable state with the original.  Used
    to give canary shadow runs a scratch context (DESIGN.md section 12). *)

val of_list : (int * int) list -> t
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over all live bindings in unspecified order. *)

val pp : Format.formatter -> t -> unit
