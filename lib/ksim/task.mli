(** Task model for the CFS scheduler simulation.

    A task alternates CPU bursts and sleeps (pure CPU-bound tasks have
    [sleep_ns = 0]) until its total work is exhausted.  Every task runs at
    nice 0, weight 1024 in the kernel's nice-to-weight table. *)

type state = Runnable | Running | Sleeping | Finished

type t = {
  id : int;
  burst_ns : int;        (** CPU time between voluntary sleeps *)
  sleep_ns : int;        (** sleep length after each burst (0 = never sleeps) *)
  arrival_ns : int;
  total_work_ns : int;
  mutable state : state;
  mutable vruntime : int;
  mutable remaining_work_ns : int;
  mutable burst_left_ns : int;
  mutable sleep_until_ns : int;
  mutable cpu : int;             (** current/last CPU *)
  mutable last_ran_ns : int;     (** for cache hotness *)
  mutable runtime_ns : int;      (** accumulated CPU time *)
  mutable migrations : int;
  mutable finish_ns : int;       (** valid once [Finished] *)
}

val create :
  id:int ->
  ?burst_ns:int ->
  ?sleep_ns:int ->
  ?arrival_ns:int ->
  total_work_ns:int ->
  unit ->
  t

val weight : int
(** 1024, every task's load weight. *)

val is_sleeper : t -> bool
val charge : t -> int -> unit
(** Account [dt] of CPU time: advances vruntime, burst and work
    accounting. *)
