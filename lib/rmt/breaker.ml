type state = Closed | Open | Half_open

(* Consecutive failures (Closed) before opening, and probe successes
   (Half_open) before closing. *)
let failure_threshold = 3
let success_threshold = 2

(* The first open interval, the backoff growth cap, and the random extra
   backoff in percent of the interval. *)
let backoff_base_ns = 1_000_000
let backoff_max_ns = 1_000_000_000
let jitter_pct = 10

type t = {
  name : string;
  rng : Kml.Rng.t;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable probe_successes : int;
  mutable open_streak : int; (* opens since the last close; drives backoff *)
  mutable retry_at : int;
  mutable opens : int;
  mutable closes : int;
}

(* Process-wide transition totals (DESIGN.md section 11 discipline); the
   per-instance accessors below are the exact per-breaker story. *)
let c_opens = Obs.Counter.make "rmt.breaker.opens"
let c_closes = Obs.Counter.make "rmt.breaker.closes"
let c_half_opens = Obs.Counter.make "rmt.breaker.half_opens"
let c_trips = Obs.Counter.make "rmt.breaker.trips"

let create name =
  { name;
    rng = Kml.Rng.create (0xb4ea lxor Hashtbl.hash name);
    state = Closed;
    consecutive_failures = 0;
    probe_successes = 0;
    open_streak = 0;
    retry_at = 0;
    opens = 0;
    closes = 0 }

let name t = t.name
let state t = t.state
let state_code = function Closed -> 0 | Open -> 1 | Half_open -> 2
let retry_at t = t.retry_at
let opens t = t.opens
let closes t = t.closes
let consecutive_failures t = t.consecutive_failures

(* Saturating exponential backoff: base * 2^(open_streak - 1), capped. *)
let backoff_ns t =
  let rec grow b k = if k <= 0 || b >= backoff_max_ns then b else grow (b * 2) (k - 1) in
  Stdlib.min backoff_max_ns (grow backoff_base_ns (t.open_streak - 1))

let open_now t ~now =
  t.state <- Open;
  t.opens <- t.opens + 1;
  t.open_streak <- t.open_streak + 1;
  t.probe_successes <- 0;
  let backoff = backoff_ns t in
  let jitter = Kml.Rng.int t.rng (Stdlib.max 1 (backoff * jitter_pct / 100)) in
  t.retry_at <- now + backoff + jitter;
  Obs.Counter.incr c_opens

let allow t ~now =
  match t.state with
  | Closed -> true
  | Half_open -> true
  | Open ->
    if now >= t.retry_at then begin
      t.state <- Half_open;
      t.probe_successes <- 0;
      Obs.Counter.incr c_half_opens;
      true
    end
    else false

let record_success t ~now:_ =
  match t.state with
  | Closed -> t.consecutive_failures <- 0
  | Open -> ()
  | Half_open ->
    t.probe_successes <- t.probe_successes + 1;
    if t.probe_successes >= success_threshold then begin
      t.state <- Closed;
      t.consecutive_failures <- 0;
      t.open_streak <- 0;
      t.closes <- t.closes + 1;
      Obs.Counter.incr c_closes
    end

let record_failure t ~now =
  match t.state with
  | Open -> ()
  | Closed ->
    t.consecutive_failures <- t.consecutive_failures + 1;
    if t.consecutive_failures >= failure_threshold then open_now t ~now
  | Half_open -> open_now t ~now

let trip t ~now =
  match t.state with
  | Open -> ()
  | Closed | Half_open ->
    Obs.Counter.incr c_trips;
    open_now t ~now

let reset t =
  t.state <- Closed;
  t.consecutive_failures <- 0;
  t.probe_successes <- 0;
  t.open_streak <- 0;
  t.retry_at <- 0
