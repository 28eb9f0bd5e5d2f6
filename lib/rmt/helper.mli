(** Constrained kernel helper functions callable from RMT bytecode (§3.1:
    "a constrained set of kernel functions that are dedicated to learning
    and inference").

    Helpers follow the eBPF calling convention: arguments in r1..r5, result
    in r0.  A helper that computes an *aggregate* over the execution context
    declares a positive [privacy_cost] (milli-epsilon per call); the VM
    charges the program's differential-privacy budget and noises the result
    (§3.3 "Privacy"). *)

type env = {
  mutable ctxt : Ctxt.t;    (** mutable so engines can reuse one env across runs *)
  mutable now : unit -> int;  (** simulated nanoseconds *)
  random : unit -> int;     (** deterministic per-VM randomness *)
}

type t

val create : unit -> t
val register :
  t -> name:string -> arity:int -> ?privacy_cost:int -> (env -> int array -> int) -> int
(** Returns the helper id.  [arity] must be within 0..5. *)

val with_defaults : unit -> t
(** A registry pre-populated with the standard helper set (see below). *)

val id_of_name : t -> string -> int option
val name : t -> int -> string
val arity : t -> int -> int
val privacy_cost : t -> int -> int
val mem : t -> int -> bool
val invoke : t -> int -> env -> int array -> int
(** Raises [Invalid_argument] on an unknown id or arity mismatch. *)

(** {2 Standard helper ids (stable across [with_defaults])} *)

(** [ktime_get ()] — current simulated time. *)
val ktime_get : int

(** [abs_val x] — absolute value. *)
val abs_val : int

(** [log2_floor x] — floor of log2; 0 for x <= 1. *)
val log2_floor : int

(** [ctxt_sum_range base len] — sum of ctxt keys; aggregate, DP-charged. *)
val ctxt_sum_range : int

(** [ctxt_count_nonzero base len] — non-zero ctxt keys; aggregate, DP-charged. *)
val ctxt_count_nonzero : int

(** [sign x] — -1, 0 or 1. *)
val sign : int

(** [clamp3 x lo hi] — clamped x. *)
val clamp3 : int
