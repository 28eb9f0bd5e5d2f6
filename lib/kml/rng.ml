(* The 64-bit state is kept as two 32-bit halves in immediate fields: a
   mutable [int64] field would box a fresh [int64] on every draw. *)
type t = { mutable hi : int; mutable lo : int }

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] state t = Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)

let[@inline] set_state t z =
  t.hi <- Int64.to_int (Int64.shift_right_logical z 32);
  t.lo <- Int64.to_int (Int64.logand z 0xFFFF_FFFFL)

let of_state z =
  let t = { hi = 0; lo = 0 } in
  set_state t z;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next64 t =
  let z = Int64.add (state t) golden in
  set_state t z;
  mix z

let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias.  [next] is uniform on
     [0, 2^62); accept below the largest multiple of [bound] that fits in
     the native int (2^62 itself is not representable). *)
  let limit = max_int / bound * bound in
  let v = ref (next t) in
  while !v >= limit do
    v := next t
  done;
  !v mod bound

let bool t = Int64.logand (next64 t) 1L = 1L
let uniform t = float_of_int (next t) /. 4611686018427387904.0 (* 2^62 *)
let float t bound = uniform t *. bound

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else begin
    let rec nonzero () =
      let u = uniform t in
      if u > 0.0 then u else nonzero ()
    in
    int_of_float (Float.floor (log (nonzero ()) /. log (1.0 -. p)))
  end

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Index-keyed substream derivation.  The child state is the parent state
   advanced by (i + 1) golden-ratio steps, pushed through the SplitMix64
   finalizer twice with an odd xor constant in between, so children of
   nearby indices land in unrelated regions of the state space.  Pure:
   the parent is not advanced, making the derivation independent of the
   order (or domain) in which tasks run. *)
let split t i =
  if i < 0 then invalid_arg "Rng.split: index must be non-negative";
  let z = Int64.add (state t) (Int64.mul golden (Int64.of_int (i + 1))) in
  of_state (mix (Int64.logxor (mix z) 0xD1342543DE82EF95L))
