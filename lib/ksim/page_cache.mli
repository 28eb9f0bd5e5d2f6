(** Resident-set model: a bounded page cache with LRU eviction.

    Pages carry two pieces of metadata the prefetch metrics need: the time
    the page's backing read completes ([ready_time], so a demand access to a
    still-in-flight prefetched page stalls only for the remainder), and
    whether the page was brought in by a prefetch and not yet used (so we
    can classify each prefetch as useful or wasted when it is used or
    evicted).

    The cache is preallocated at [create]: [capacity] slots held in flat
    int arrays (LRU order as [prev]/[next] slot links) and an
    open-addressed page-to-slot index.  No operation after [create]
    allocates. *)

type origin = Demand | Prefetch

type t

val create : capacity:int -> t
val resident : t -> int

val lookup : t -> page:int -> bool
(** [true] on a hit.  A hit refreshes LRU recency and consumes the page's
    "unused prefetch" flag (a second access to the same prefetched page is
    a plain hit); its metadata is then read with {!hit_ready_time} and
    {!hit_first_use} until the next [lookup]. *)

val hit_ready_time : t -> int
(** The ready time of the page the last hitting [lookup] found. *)

val hit_first_use : t -> bool
(** Whether the last hitting [lookup] was the first use of a prefetched
    page. *)

val insert : t -> page:int -> origin:origin -> ready_time:int -> unit
(** Adds a page that is not resident, evicting the LRU page when full.  If
    the page is already resident nothing changes, neither its metadata nor
    its recency (a prefetch of a resident page is a no-op; callers should
    avoid issuing it). *)

val contains : t -> page:int -> bool
val evicted_unused_prefetches : t -> int
(** Prefetched pages that were evicted before first use (wasted). *)
