(** Per-CPU CFS runqueue: tasks ordered by vruntime (the kernel uses a
    red-black tree; an ordered set gives the same O(log n) bounds). *)

type t

val create : cpu:int -> t
val enqueue : t -> Task.t -> unit
(** Raises [Invalid_argument] if the task is already queued here. *)

val dequeue_min : t -> Task.t option
(** Removes and returns the leftmost (min-vruntime) task. *)

val remove : t -> Task.t -> bool
val nr_running : t -> int
(** Queued tasks (excluding any currently-running task, which the scheduler
    holds outside the queue). *)

val load : t -> int
(** Sum of queued tasks' weights. *)

val min_vruntime : t -> int
(** Monotonically-maintained floor used to place newly woken tasks; never
    decreases. *)

val to_list : t -> Task.t list
