(** Memory-subsystem simulation: run a page-access trace through the page
    cache + swap device under a given prefetcher and report the metrics of
    the paper's Table 1.

    Timing model: each access costs [cpu_ns_per_access] of computation; a
    miss additionally stalls until the demand read completes (reads queue
    FIFO on the device, behind any outstanding prefetch traffic, so
    inaccurate prefetching delays demand faults); an access to a
    still-in-flight prefetched page stalls only for the remaining time.
    Prefetches returned by the prefetcher are issued asynchronously after
    the access, capped at [max_prefetch_per_access].

    Metric definitions (standard prefetch accounting):
    - {b accuracy} = used prefetches / issued prefetches;
    - {b coverage} = misses eliminated / misses the no-prefetch run would
      take = used prefetches / (used prefetches + remaining faults);
    - {b completion time} = simulated end-to-end runtime of the trace. *)

type access = { pid : int; page : int }

type config = {
  cache_pages : int;
  cpu_ns_per_access : int;
  swap_service_ns : int;
  max_prefetch_per_access : int;
}

type result = {
  prefetcher : string;
  accesses : int;
  faults : int;                (** demand misses that stalled *)
  partial_stalls : int;        (** hits on in-flight prefetched pages *)
  prefetches_issued : int;
  prefetches_used : int;
  accuracy : float;
  coverage : float;
  completion_ns : int;
  stall_ns : int;
  device_reads : int;
}

val run : config:config -> ?reset:bool -> prefetcher:Prefetcher.t -> access list -> result
(** The prefetcher is [reset] before the run unless [reset:false] is given
    (used to carry learned state across a workload shift). *)
