(** Accuracy-triggered reconfiguration (§3.1 "Updating RMT entries"):
    "if the prefetching accuracy falls below a threshold, the control plane
    will recompute ML decisions to be more conservative […] and reconfigure
    the RMT tables to reflect the workload changes."

    A windowed accuracy monitor with hysteresis: when the accuracy of a
    48-observation window drops below 0.62 the monitor enters
    [Conservative] mode; when a window recovers above 0.80 it returns to
    [Normal].  {!Fleet} keeps one per tenant and starts a drift episode
    on a degrade. *)

type mode = Normal | Conservative

type t

val create : unit -> t
(** Band crossings use strict inequalities and are judged only when a
    window completes, so transitions are at least 48 observations apart
    and a tenant oscillating around a band edge cannot flap — the fleet
    control plane adds its own episode cooldown on top (DESIGN.md
    section 17). *)

val observe : t -> correct:bool -> unit
val mode : t -> mode
val rate : t -> float
(** Accuracy over the current (possibly partial) window. *)

val transitions : t -> int
(** Number of mode changes so far. *)

val observations : t -> int
