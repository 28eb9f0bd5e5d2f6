type t = {
  lo : int;
  hi : int;
  window : int;
  mutable violations : int;
  (* Rolling window: counts reset every [window] applications, with the
     completed window's rate kept for fresh-window reads. *)
  mutable w_seen : int;
  mutable w_viol : int;
  mutable last_rate : float;
}

(* Process-wide violation total (DESIGN.md section 11): the per-instance
   [violations] accessor is unchanged; the striped counter folds every
   guardrail into one registry row.  Incremented only on the (cold)
   clamping paths. *)
let c_violations = Obs.Counter.make "rmt.guardrail.violations"

let default_window = 256

let create_windowed ~window ~lo ~hi =
  if lo > hi then invalid_arg "Guardrail.create: lo > hi";
  if window <= 0 then invalid_arg "Guardrail.create: window must be positive";
  { lo; hi; window; violations = 0; w_seen = 0; w_viol = 0; last_rate = 0.0 }

let create ~lo ~hi = create_windowed ~window:default_window ~lo ~hi

let roll t =
  t.w_seen <- t.w_seen + 1;
  if t.w_seen >= t.window then begin
    t.last_rate <- float_of_int t.w_viol /. float_of_int t.w_seen;
    t.w_seen <- 0;
    t.w_viol <- 0
  end

let violate t =
  t.violations <- t.violations + 1;
  t.w_viol <- t.w_viol + 1;
  Obs.Counter.incr c_violations

let apply t v =
  roll t;
  if v < t.lo then begin
    violate t;
    t.lo
  end
  else if v > t.hi then begin
    violate t;
    t.hi
  end
  else v

let violations t = t.violations

(* Freshness over completeness: once the current window has enough
   observations to be meaningful it speaks for itself; before that the
   last completed window's rate stands in.  A violation storm therefore
   registers within ~8 applications, not a full window.  The rate is
   compared, never returned: a float crossing the module boundary is
   boxed, and the pipeline health monitor runs this once per batch on
   the serving hot path.  All intermediates stay unboxed. *)
let violation_rate_ge t rate =
  if t.w_seen >= 8 then float_of_int t.w_viol >= rate *. float_of_int t.w_seen
  else t.last_rate >= rate
