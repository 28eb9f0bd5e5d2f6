(* Pure decision functions shared by the serving-plane implementations
   (Ring.try_push/drain_into, Shard.park) and the small-scope transition
   systems the model checker enumerates (Analysis.Mc_models): the checker
   exercises the exact predicates the datapath runs.  Everything here is
   total, allocation-free and effect-free. *)

let push_free ~tail ~cached_head ~capacity = tail - cached_head < capacity
let drain_ready ~cached_tail ~head ~max = cached_tail - head >= max

let drain_batch ~cached_tail ~head ~max =
  let avail = cached_tail - head in
  if avail <= 0 then 0 else if avail < max then avail else max

let should_sleep ~should_stop ~rings_empty = (not should_stop) && rings_empty

module type SPSC = sig
  type t

  val create : capacity:int -> t
  val capacity : t -> int
  val try_push : t -> tenant:int -> page:int -> stamp:int -> bool
  val drain_into : t -> max:int -> int array -> int array -> int array -> int
  val is_empty : t -> bool
  val length : t -> int
end
