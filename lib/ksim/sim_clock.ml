type t = { mutable now : int }

let create () = { now = 0 }

let advance_to t time =
  if time < t.now then invalid_arg "Sim_clock.advance_to: moving backward";
  t.now <- time

let us n = n * 1_000
let ms n = n * 1_000_000
