(** Leap baseline (Al Maruf & Chowdhury, ATC '20): trend-based prefetching
    for (remote) memory.

    Leap keeps a window of recent page-access deltas per process and finds
    the {e majority} delta with a Boyer–Moore vote.  If a majority trend
    exists, it prefetches pages along that trend ([page + k·delta] for
    k = 1..depth); otherwise it falls back to no prefetch.  This
    generalizes sequential detection to constant strides — the paper's §4
    notes Leap "extended this to detect striding patterns". *)

val create : depth:int -> unit -> Prefetcher.t
(** [depth] pages are fetched along a trend that holds at least 12 of the
    last 32 deltas. *)

val majority : int array -> (int * int) option
(** Boyer–Moore majority vote: [Some (value, support)] where [support] is
    the number of occurrences of the winning candidate (exposed for tests). *)
