(** Dense vectors and matrices in Q16.16 fixed point (kernel-side
    inference).  Matrices are row-major. *)

module Qvec : sig
  type t = Fixed.t array

  val create : int -> t
  val of_floats : float array -> t
  val add_inplace : t -> t -> unit
  val relu_inplace : t -> unit
  val max_index : t -> int
end

module Qmat : sig
  type t

  val of_floats : rows:int -> cols:int -> float array -> t
  (** Quantizes a row-major [rows × cols] float matrix: row [i], column
      [j] is [data.(i * cols + j)]. *)

  val rows : t -> int
  val cols : t -> int
  val mul_vec_into : t -> Qvec.t -> Qvec.t -> unit
  (** [mul_vec_into m x out] writes [m * x] into [out] without allocating. *)

  val mul_vec_batch :
    t -> x:Qvec.t -> xstride:int -> y:Qvec.t -> ystride:int -> n:int -> unit
  (** Batched [mul_vec_into] over [n] slot-major vectors: slot [s]'s input
      is [x.(s * xstride + j)], its result row [i] lands in
      [y.(s * ystride + i)].  The loop is weight-row-major with slots
      innermost, so each weight row is read once per batch sweep; per slot
      the result is bit-identical to [mul_vec_into].  Allocation-free. *)
end
