type t = { mutable now : int }

let create () = { now = 0 }
let now t = t.now

let advance t dt =
  if dt < 0 then invalid_arg "Sim_clock.advance: negative duration";
  t.now <- t.now + dt

let advance_to t time =
  if time < t.now then invalid_arg "Sim_clock.advance_to: moving backward";
  t.now <- time

let reader t () = t.now
let us n = n * 1_000
let ms n = n * 1_000_000
