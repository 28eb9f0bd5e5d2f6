type mode = Normal | Conservative

(* Global across adapters: the control plane cares how often ANY model
   crosses its hysteresis bands, not which instance did. *)
let c_transitions = Obs.Counter.make "rkd.adapt.transitions"
let c_degrades = Obs.Counter.make "rkd.adapt.degrades"
let c_recoveries = Obs.Counter.make "rkd.adapt.recoveries"

(* The hysteresis band and the observation window.  Transitions happen
   only when a window completes, so two transitions are always at least
   one window apart: a tenant hovering around a band edge cannot change
   mode (and trigger install machinery) more than once per window. *)
let low = 0.62
let high = 0.80
let window = 48

type t = {
  mutable mode : mode;
  mutable seen : int;
  mutable correct : int;
  mutable last_rate : float;
  mutable transitions : int;
  mutable observations : int;
}

let create () =
  { mode = Normal;
    seen = 0;
    correct = 0;
    last_rate = 1.0;
    transitions = 0;
    observations = 0 }

let observe t ~correct =
  t.observations <- t.observations + 1;
  t.seen <- t.seen + 1;
  if correct then t.correct <- t.correct + 1;
  if t.seen >= window then begin
    let rate = float_of_int t.correct /. float_of_int t.seen in
    t.last_rate <- rate;
    t.seen <- 0;
    t.correct <- 0;
    let transition mode =
      t.mode <- mode;
      t.transitions <- t.transitions + 1;
      Obs.Counter.incr c_transitions
    in
    match t.mode with
    | Normal when rate < low ->
      transition Conservative;
      Obs.Counter.incr c_degrades
    | Conservative when rate > high ->
      transition Normal;
      Obs.Counter.incr c_recoveries
    | Normal | Conservative -> ()
  end

let mode t = t.mode

let rate t =
  if t.seen = 0 then t.last_rate else float_of_int t.correct /. float_of_int t.seen

let transitions t = t.transitions
let observations t = t.observations
