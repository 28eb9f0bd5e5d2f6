(** Dependency-free OCaml 5 domain pool for the experiment layer.

    A [pool] owns a fixed set of worker domains.  Work arrives as an
    indexed batch over [0, n) with one shared atomic cursor: each
    participant (the submitting domain plus every worker) claims the next
    index, counting down from [n - 1], until none is left, so a domain
    that finishes early just claims more.

    Design rules:
    - The submitting domain participates, so a pool of [n] domains gives
      [n]-way parallelism with [n - 1] spawned workers.
    - A pool of 1 domain spawns nothing and runs every batch inline — the
      sequential fallback used when [RKD_DOMAINS=1].
    - Calls from inside a pool task run inline on the calling domain
      (nested batches do not deadlock and do not oversubscribe).
    - The first exception raised by a task is re-raised, with its
      backtrace, on the submitting domain after the batch drains.
    - Scheduling never influences results: combinators preserve input
      order, so output is identical for every pool size.  Determinism of
      the *values* is the caller's contract — each task must derive its
      randomness from its task index (see [Kml.Rng.split]). *)

type pool

val default_domains : unit -> int
(** Pool width used by [global]: the [RKD_DOMAINS] environment variable
    when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  Clamped to \[1, 64\]. *)

val create : ?domains:int -> unit -> pool
(** [create ~domains ()] spawns [domains - 1] worker domains
    (default: [default_domains ()]).  [domains] is clamped to \[1, 64\]. *)

val shutdown : pool -> unit
(** Stops and joins the workers.  Idempotent.  Submitting to a shut-down
    pool runs the batch sequentially. *)

val parallel_map_array : pool -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map, one task per element.  On a width-1
    or shut-down pool, inside a pool task, or for at most one element,
    this is a plain sequential [Array.map]. *)

val parallel_map : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over a list. *)

val run_tasks : pool -> (unit -> 'a) list -> 'a list
(** Runs independent thunks in parallel; results in input order. *)

(** {2 Pinned long-lived workers}

    The inverse shape of the pool's batches: a domain that lives for a
    whole serving session and owns long-lived state (a shard's VM and
    tables), instead of participating in short indexed batches.  Pinned
    workers mark themselves as pool participants, so nested batch
    submissions from worker code run inline on the worker's own domain
    (no pool re-entry, no oversubscription). *)

module Pinned : sig
  type t

  val spawn : (unit -> unit) -> t
  (** Spawn one long-lived worker domain running [f].  The caller owns
      shutdown: make [f] return (a stop flag, closing a queue) and then
      {!join}. *)

  val join : t -> unit
  (** Wait for the worker to return.  Re-raises the worker's uncaught
      exception, if any, on the joining domain. *)
end

(** {2 Global pool}

    The experiment layer shares one process-wide pool so that nested
    fan-outs (Table 2 fanning out per benchmark, each benchmark running
    its two JCT simulations as tasks) compose without oversubscription.  The pool is created lazily and joined via
    [at_exit]. *)

val global : unit -> pool
(** The shared pool, created on first use with [default_domains ()]. *)

val global_domains : unit -> int
(** Width the global pool has (or would be created with). *)

val set_global_domains : int -> unit
(** Resizes the global pool (shutting down the old one).  No-op when the
    width is unchanged.  Used by the [--domains] flag of [rkdctl], the
    macro benchmark's timing and {!replay}; everything else that needs
    a given width goes through {!replay}. *)

val replay : widths:int list -> (unit -> 'a) -> (int * 'a) list
(** The determinism harness: [replay ~widths f] runs [f] once per width
    on the global pool, in order, and pairs each result with the width
    it ran at (clamped like {!set_global_domains}).  Afterwards the
    global pool has the width it had before, also when [f] raises.
    Callers compare the results (or their digests): every experiment
    must come out bit-identical at every width. *)
