module Qvec = struct
  type t = Fixed.t array

  let create n = Array.make n Fixed.zero
  let of_floats v = Array.map Fixed.of_float v

  let add_inplace dst src =
    if Array.length dst <> Array.length src then invalid_arg "Qvec.add_inplace: dimension mismatch";
    for i = 0 to Array.length dst - 1 do
      dst.(i) <- Fixed.add dst.(i) src.(i)
    done

  let relu_inplace v =
    for i = 0 to Array.length v - 1 do
      v.(i) <- Fixed.relu v.(i)
    done

  let max_index v =
    if Array.length v = 0 then invalid_arg "Qvec.max_index: empty vector";
    let best = ref 0 in
    for i = 1 to Array.length v - 1 do
      if Fixed.( > ) v.(i) v.(!best) then best := i
    done;
    !best
end

module Qmat = struct
  type t = { rows : int; cols : int; data : Fixed.t array }

  let of_floats ~rows ~cols data =
    if rows < 0 || cols < 0 || Array.length data <> rows * cols then
      invalid_arg "Qmat.of_floats: dimension mismatch";
    { rows; cols; data = Array.map Fixed.of_float data }

  let rows m = m.rows
  let cols m = m.cols

  let mul_vec_into m (x : Qvec.t) (out : Qvec.t) =
    if m.cols <> Array.length x then invalid_arg "Qmat.mul_vec_into: dimension mismatch";
    if m.rows <> Array.length out then invalid_arg "Qmat.mul_vec_into: output dimension mismatch";
    (* Hot path: raw Q16.16 multiply-accumulate.  Products of in-range
       values fit the 63-bit int with >20 bits to spare, so per-element
       rounding/saturation is deferred to one [of_raw] per row. *)
    for i = 0 to m.rows - 1 do
      let base = i * m.cols in
      let acc = ref 0 in
      for j = 0 to m.cols - 1 do
        acc := !acc + (((m.data.(base + j) :> int) * (x.(j) :> int)) asr Fixed.frac_bits)
      done;
      out.(i) <- Fixed.of_raw !acc
    done

  let mul_vec_batch m ~(x : Qvec.t) ~xstride ~(y : Qvec.t) ~ystride ~n =
    if m.cols > xstride || m.rows > ystride then
      invalid_arg "Qmat.mul_vec_batch: stride smaller than matrix dimension";
    if Array.length x < n * xstride || Array.length y < n * ystride then
      invalid_arg "Qmat.mul_vec_batch: buffer too small";
    (* Register-tiled 4 weight rows x 4 batch slots.  The scalar kernel's
       single accumulator serializes on its ~5-cycle multiply-shift-add
       latency every element; the tile's sixteen independent accumulator
       chains keep the multiplier busy.  Sharing also cuts load traffic
       per multiply-accumulate: each loaded weight feeds four slots and
       each loaded x element feeds four rows — 8 loads for 16 MACs where
       a row-at-a-time sweep does 9 loads for 8.  Each slot's
       accumulation order is still exactly [mul_vec_into]'s, so results
       are bit-identical.

       The stride/length checks above prove every index below in bounds
       for the whole batch, so the loops run unchecked — one validation
       amortized over [n * rows * cols] accesses. *)
    let data = m.data and cols = m.cols in
    let fb = Fixed.frac_bits in
    let i = ref 0 in
    while !i + 3 < m.rows do
      let base0 = !i * cols in
      let base1 = base0 + cols in
      let base2 = base1 + cols in
      let base3 = base2 + cols in
      let yb = ref !i in
      let s = ref 0 in
      while !s + 3 < n do
        let x0 = !s * xstride in
        let x1 = x0 + xstride in
        let x2 = x1 + xstride in
        let x3 = x2 + xstride in
        let a0 = ref 0 and a1 = ref 0 and a2 = ref 0 and a3 = ref 0 in
        let b0 = ref 0 and b1 = ref 0 and b2 = ref 0 and b3 = ref 0 in
        let c0 = ref 0 and c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
        let d0 = ref 0 and d1 = ref 0 and d2 = ref 0 and d3 = ref 0 in
        for j = 0 to cols - 1 do
          let w0 = (Array.unsafe_get data (base0 + j) :> int) in
          let w1 = (Array.unsafe_get data (base1 + j) :> int) in
          let w2 = (Array.unsafe_get data (base2 + j) :> int) in
          let w3 = (Array.unsafe_get data (base3 + j) :> int) in
          let g0 = (Array.unsafe_get x (x0 + j) :> int) in
          let g1 = (Array.unsafe_get x (x1 + j) :> int) in
          let g2 = (Array.unsafe_get x (x2 + j) :> int) in
          let g3 = (Array.unsafe_get x (x3 + j) :> int) in
          a0 := !a0 + ((w0 * g0) asr fb);
          a1 := !a1 + ((w0 * g1) asr fb);
          a2 := !a2 + ((w0 * g2) asr fb);
          a3 := !a3 + ((w0 * g3) asr fb);
          b0 := !b0 + ((w1 * g0) asr fb);
          b1 := !b1 + ((w1 * g1) asr fb);
          b2 := !b2 + ((w1 * g2) asr fb);
          b3 := !b3 + ((w1 * g3) asr fb);
          c0 := !c0 + ((w2 * g0) asr fb);
          c1 := !c1 + ((w2 * g1) asr fb);
          c2 := !c2 + ((w2 * g2) asr fb);
          c3 := !c3 + ((w2 * g3) asr fb);
          d0 := !d0 + ((w3 * g0) asr fb);
          d1 := !d1 + ((w3 * g1) asr fb);
          d2 := !d2 + ((w3 * g2) asr fb);
          d3 := !d3 + ((w3 * g3) asr fb)
        done;
        Array.unsafe_set y !yb (Fixed.of_raw !a0);
        Array.unsafe_set y (!yb + ystride) (Fixed.of_raw !a1);
        Array.unsafe_set y (!yb + (2 * ystride)) (Fixed.of_raw !a2);
        Array.unsafe_set y (!yb + (3 * ystride)) (Fixed.of_raw !a3);
        let zb = !yb + 1 in
        Array.unsafe_set y zb (Fixed.of_raw !b0);
        Array.unsafe_set y (zb + ystride) (Fixed.of_raw !b1);
        Array.unsafe_set y (zb + (2 * ystride)) (Fixed.of_raw !b2);
        Array.unsafe_set y (zb + (3 * ystride)) (Fixed.of_raw !b3);
        let zb = !yb + 2 in
        Array.unsafe_set y zb (Fixed.of_raw !c0);
        Array.unsafe_set y (zb + ystride) (Fixed.of_raw !c1);
        Array.unsafe_set y (zb + (2 * ystride)) (Fixed.of_raw !c2);
        Array.unsafe_set y (zb + (3 * ystride)) (Fixed.of_raw !c3);
        let zb = !yb + 3 in
        Array.unsafe_set y zb (Fixed.of_raw !d0);
        Array.unsafe_set y (zb + ystride) (Fixed.of_raw !d1);
        Array.unsafe_set y (zb + (2 * ystride)) (Fixed.of_raw !d2);
        Array.unsafe_set y (zb + (3 * ystride)) (Fixed.of_raw !d3);
        yb := !yb + (4 * ystride);
        s := !s + 4
      done;
      (* Remainder slots of this 4-row group (at most 3). *)
      while !s < n do
        let xb = !s * xstride in
        let a = ref 0 and b = ref 0 and c = ref 0 and d = ref 0 in
        for j = 0 to cols - 1 do
          let g = (Array.unsafe_get x (xb + j) :> int) in
          a := !a + (((Array.unsafe_get data (base0 + j) :> int) * g) asr fb);
          b := !b + (((Array.unsafe_get data (base1 + j) :> int) * g) asr fb);
          c := !c + (((Array.unsafe_get data (base2 + j) :> int) * g) asr fb);
          d := !d + (((Array.unsafe_get data (base3 + j) :> int) * g) asr fb)
        done;
        Array.unsafe_set y !yb (Fixed.of_raw !a);
        Array.unsafe_set y (!yb + 1) (Fixed.of_raw !b);
        Array.unsafe_set y (!yb + 2) (Fixed.of_raw !c);
        Array.unsafe_set y (!yb + 3) (Fixed.of_raw !d);
        yb := !yb + ystride;
        s := !s + 1
      done;
      i := !i + 4
    done;
    (* Remainder rows (at most 3), row at a time. *)
    while !i < m.rows do
      let base = !i * cols in
      let yb = ref !i in
      for s = 0 to n - 1 do
        let xb = s * xstride in
        let acc = ref 0 in
        for j = 0 to cols - 1 do
          acc :=
            !acc
            + (((Array.unsafe_get data (base + j) :> int)
                * (Array.unsafe_get x (xb + j) :> int))
               asr fb)
        done;
        Array.unsafe_set y !yb (Fixed.of_raw !acc);
        yb := !yb + ystride
      done;
      i := !i + 1
    done
end
