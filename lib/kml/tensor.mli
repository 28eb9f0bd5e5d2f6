(** Dense vectors and matrices, in float (userspace training) and Q16.16
    fixed point (kernel-side inference).

    Matrices are row-major: [Mat.get m i j] reads row [i], column [j]. *)

module Vec : sig
  type t = float array

  val create : int -> t
  val dim : t -> int
  val axpy : alpha:float -> x:t -> y:t -> unit
  (** [axpy ~alpha ~x ~y] updates [y <- alpha * x + y] in place. *)

  val map : (float -> float) -> t -> t
  val max_index : t -> int
  (** Index of the maximum element; first wins on ties. Requires [dim > 0]. *)

  val mean : t -> float
end

module Mat : sig
  type t

  val create : rows:int -> cols:int -> t
  val init : rows:int -> cols:int -> (int -> int -> float) -> t
  val rows : t -> int
  val cols : t -> int
  val get : t -> int -> int -> float
  val set : t -> int -> int -> float -> unit
  val mul_vec : t -> Vec.t -> Vec.t
  (** [mul_vec m x] is [m * x]; requires [cols m = Vec.dim x]. *)

  val tmul_vec : t -> Vec.t -> Vec.t
  (** [tmul_vec m x] is [mᵀ * x]; requires [rows m = Vec.dim x]. *)
end

module Qvec : sig
  type t = Fixed.t array

  val create : int -> t
  val of_vec : Vec.t -> t
  val add_inplace : t -> t -> unit
  val relu_inplace : t -> unit
  val max_index : t -> int
end

module Qmat : sig
  type t

  val of_mat : Mat.t -> t
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
