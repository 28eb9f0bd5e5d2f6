type t = int

let frac_bits = 16
let scale = 1 lsl frac_bits
let one = scale
let zero = 0

(* Saturation bounds: keep products of two in-range values representable in
   the 63-bit native int.  23 integer bits is ample for every feature and
   weight in this repository. *)
let max_val = (1 lsl 39) - 1
let min_val = -(1 lsl 39)
let saturate x = if x > max_val then max_val else if x < min_val then min_val else x
let of_int n = saturate (n * scale)
let of_float f = saturate (int_of_float (Float.round (f *. float_of_int scale)))
let to_float x = float_of_int x /. float_of_int scale
let of_raw x = saturate x
let to_raw x = x
let add a b = saturate (a + b)
let sub a b = saturate (a - b)
let neg a = saturate (-a)

let mul a b =
  if a = 0 || b = 0 then 0
  else begin
    (* Raw operands are bounded by 2^39, so the raw product can reach 2^78
       and overflow the native int before [saturate] sees it; saturate
       eagerly when the product cannot be represented. *)
    let positive = a >= 0 = (b >= 0) in
    let abs_a = Stdlib.abs a and abs_b = Stdlib.abs b in
    if abs_a > max_int / abs_b then if positive then max_val else min_val
    else begin
      let p = a * b in
      let half = scale / 2 in
      let r = if p >= 0 then (p + half) asr frac_bits else -((-p + half) asr frac_bits) in
      saturate r
    end
  end

let div a b =
  if b = 0 then raise Division_by_zero
  else begin
    let n = a * scale in
    let q = if (n >= 0) = (b > 0) then (n + (abs b / 2)) / b else (n - (abs b / 2)) / b in
    saturate q
  end

let abs x = Stdlib.abs x
let min (a : t) b = Stdlib.min a b
let max (a : t) b = Stdlib.max a b
let clamp ~lo ~hi x = min hi (max lo x)
let equal (a : t) b = a = b
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let relu x = max zero x

let pp fmt x = Format.fprintf fmt "%.5f" (to_float x)
