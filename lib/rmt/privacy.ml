type account = {
  budget_milli : int;
  mutable spent_milli : int;
  mutable denials : int;
}

(* Process-wide DP accounting (DESIGN.md section 11); per-account
   accessors are unchanged.  Privacy-charged helpers are rare on the
   datapath, so counting every charge outcome is cheap. *)
let c_grants = Obs.Counter.make "rmt.privacy.grants"
let c_denials = Obs.Counter.make "rmt.privacy.denials"
let c_spent_milli = Obs.Counter.make "rmt.privacy.spent_milli"

let create ~epsilon_milli =
  if epsilon_milli < 0 then invalid_arg "Privacy.create: negative budget";
  { budget_milli = epsilon_milli; spent_milli = 0; denials = 0 }

let remaining_milli t = t.budget_milli - t.spent_milli
let denials t = t.denials

type grant = Granted of { epsilon_milli : int } | Denied

let charge t ~cost_milli =
  if cost_milli <= 0 then invalid_arg "Privacy.charge: cost must be positive";
  if remaining_milli t >= cost_milli then begin
    t.spent_milli <- t.spent_milli + cost_milli;
    Obs.Counter.incr c_grants;
    Obs.Counter.add c_spent_milli cost_milli;
    Granted { epsilon_milli = cost_milli }
  end
  else begin
    t.denials <- t.denials + 1;
    Obs.Counter.incr c_denials;
    Denied
  end

(* Two-sided geometric mechanism: X = G1 - G2 where Gi ~ Geometric(1 - alpha)
   and alpha = exp(-epsilon / sensitivity).  Provides epsilon-DP for integer
   queries of the given L1 sensitivity. *)
let noise ~rng ~epsilon_milli ~sensitivity =
  if epsilon_milli <= 0 then invalid_arg "Privacy.noise: epsilon must be positive";
  if sensitivity <= 0 then invalid_arg "Privacy.noise: sensitivity must be positive";
  let alpha = exp (-.(float_of_int epsilon_milli /. 1000.0) /. float_of_int sensitivity) in
  let p = 1.0 -. alpha in
  let g1 = Kml.Rng.geometric rng ~p and g2 = Kml.Rng.geometric rng ~p in
  g1 - g2

let noisy_result t ~rng ~cost_milli ~sensitivity v =
  match charge t ~cost_milli with
  | Denied -> None
  | Granted { epsilon_milli } -> Some (v + noise ~rng ~epsilon_milli ~sensitivity)
