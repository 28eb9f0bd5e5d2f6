(** Prefetcher interface shared by the baselines (Linux readahead, Leap)
    and the RMT/ML prefetcher built on top in the [rkd] library.

    [on_access] fires after every memory access is serviced — this is the
    simulator's analogue of the kernel's swap-in path, where
    [lookup_swap_cache] (data collection) and [swap_cluster_readahead]
    (prefetch decision) both live.  It returns the pages to prefetch;
    already-resident pages are filtered by the simulator. *)

type t = {
  name : string;
  on_access : pid:int -> page:int -> hit:bool -> now:int -> int list;
  reset : unit -> unit;
}

val none : t
(** Never prefetches. *)

val next_n : depth:int -> t
(** Unconditionally prefetches the next [depth] pages — the strawman upper
    bound on aggressiveness. *)
