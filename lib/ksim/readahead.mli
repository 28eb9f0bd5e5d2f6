(** Linux-style readahead baseline: "the default readahead prefetcher
    detects sequential page accesses and prefetches the next set of pages"
    (§4, citing the classic readahead algorithm).

    Per process, the detector tracks the current sequential run.  Once a
    run of [trigger] consecutive (+1) accesses is seen, it prefetches a
    window ahead of the current page; the window doubles on continued
    sequentiality up to [max_window] and collapses on any non-sequential
    access.  Already-prefetched pages are not re-requested (the async-ahead
    position is tracked per stream). *)

type params = {
  trigger : int;
      (** consecutive +1 deltas before prefetching starts; the kernel's
          ondemand readahead fires on the second consecutive page, i.e.
          [trigger = 1] *)
  initial_window : int;
  max_window : int;
}

val create : ?params:params -> unit -> Prefetcher.t
