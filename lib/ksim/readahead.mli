(** Linux-style readahead baseline: "the default readahead prefetcher
    detects sequential page accesses and prefetches the next set of pages"
    (§4, citing the classic readahead algorithm).

    Per process, the detector tracks the current sequential run.  From the
    first (+1) access on (the kernel's ondemand readahead fires on the
    second consecutive page), it prefetches a window ahead of the current
    page: 4 pages, doubling on continued sequentiality up to 8, collapsing
    on any non-sequential access.  Already-prefetched pages are not
    re-requested (the async-ahead position is tracked per stream). *)

val create : unit -> Prefetcher.t
