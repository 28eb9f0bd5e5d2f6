(** Q16.16 signed fixed-point arithmetic on native [int].

    All kernel-side inference in this repository is integer-only, mirroring
    the paper's constraint that in-kernel ML must avoid the FPU (§3.2).
    A value [x : t] represents the rational [x / 65536].  The usual
    arithmetic laws hold up to rounding; [mul] and [div] round toward
    nearest (ties away from zero) to keep quantization error unbiased. *)

type t = private int

val frac_bits : int
(** Number of fractional bits (16). *)

val one : t
val zero : t

val of_int : int -> t
(** [of_int n] is the fixed-point value [n.0].  Saturates on overflow. *)

val of_float : float -> t
(** Userspace-only conversion used when quantizing trained models. *)

val to_float : t -> float

val of_raw : int -> t
(** Reinterpret a raw Q16.16 bit pattern. *)

val to_raw : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [div _ zero] raises [Division_by_zero]. *)

val abs : t -> t
val max : t -> t -> t
val clamp : lo:t -> hi:t -> t -> t
val equal : t -> t -> bool
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val relu : t -> t
(** [relu x] is [max zero x]. *)

val pp : Format.formatter -> t -> unit
