(** Page-access trace generators for the prefetching case study (§4,
    Table 1).

    The paper's workloads are an OpenCV video-resize application and a
    NumPy matrix-convolution program.  What matters for prefetcher
    comparisons is the {e structure} of the page-access stream, which these
    generators reproduce (see DESIGN.md §6):

    - {!video_resize}: frame-by-frame processing interleaves a sequential
      input scan with periodic output writes and frame-boundary jumps.
      Sequential detection (Linux) captures the scan segments but pays at
      every interleave point; the learned model captures the full periodic
      pattern.
    - {!matrix_conv}: column sweeps over a row-major matrix produce a
      dominant large stride with regular end-of-column jumps and occasional
      sequential output writes.  Almost nothing is (+1)-sequential, the
      majority trend (Leap) captures the in-column stride but overshoots at
      every column boundary, and the learned model captures both. *)

type access = Mem_sim.access

val sequential : pid:int -> start:int -> n:int -> access list
val strided : pid:int -> start:int -> stride:int -> n:int -> access list
val random : rng:Kml.Rng.t -> pid:int -> pages:int -> n:int -> access list
(** Uniform over [0, pages). *)

type video_params = {
  frames : int;
  frame_pages : int;  (** input pages per plane per frame *)
  group : int;        (** pages read per plane between output writes *)
  guard_pages : int;  (** never-accessed slack after each plane-frame region *)
  noise_pct : int;    (** percentage of groups followed by a random heap access *)
}

val default_video : video_params
val video_resize :
  ?params:video_params -> ?rng:Kml.Rng.t -> pid:int -> unit -> access list

val matrix_conv : pid:int -> unit -> access list
(** 1200 column walks of 8 rows at a 64-page stride, the first 2 rows
    reading two adjacent pages; columns 67 pages apart, 3 output-buffer
    writes per column and an 8-page sequential checkpoint every 100
    columns. *)

val footprint : access list -> int
(** Number of distinct pages touched. *)

val length : access list -> int

type file_kind = Sequential_file | Strided_file of int | Reversed_file

val file_streams : rng:Kml.Rng.t -> unit -> access list
(** A multi-file workload: 6 files of 1500 pages, each read with its own
    access pattern (sequential, stride 7, reversed, cycled over the files),
    interleaved in randomly-ordered bursts of 1 to 4 accesses.  The access [pid]
    field carries the {e inode} of the file touched — prefetchers keyed on
    it see clean per-file streams ("inode numbers for per-file entries",
    paper §3.1). *)

val retag : access list -> pid:int -> access list
(** Replace every access's stream tag — e.g. collapse a per-inode trace to
    a single per-process stream to measure match-granularity effects. *)

val producer_consumer :
  rng:Kml.Rng.t -> producer:int -> consumer:int -> unit -> access list
(** A producer process touching an {e irregular} (seeded-random) walk of
    4000 pages out of 200,000, interleaved with a consumer that touches the
    producer's page + 2{^20} exactly 4 producer-steps later — two mappings of a shared buffer.
    Each stream is unpredictable from its own history; their correlation is
    perfect.  Exercises cross-application optimization (§2.1 #4). *)

val multi_tenant :
  rng:Kml.Rng.t ->
  tenants:int ->
  events_per_tenant:int ->
  ?burst:int ->
  unit ->
  access list
(** A serving-layer trace: [tenants] independent per-tenant streams —
    pattern cycled by tenant id over sequential / strided / random (over
    4096 pages) /
    periodic-with-jumps — interleaved in rng-ordered bursts.  The [pid]
    field carries the tenant id.  Per-tenant subsequences are each
    stream's own order, so any consumer that preserves per-tenant FIFO
    (e.g. {!Serve.Serving}) serves them deterministically regardless of
    the global interleave. *)
