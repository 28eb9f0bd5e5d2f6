type signal = {
  now : int;
  rtt_ns : int;
  min_rtt_ns : int;
  srtt_ns : int;
  ecn : bool;
  loss : bool;
  inflight : int;
  cwnd : int;
  delivered : int;
  delivery_rate : int;
}

type decision = { cwnd : int; pacing_ns : int }

type t = { name : string; init : decision; on_signal : signal -> decision }

(* Integer cube root: largest r >= 0 with r^3 <= n.  The comparison is
   done as [r <= n / r^2] so the search never multiplies three candidate
   roots together (no overflow for any 62-bit input). *)
let icbrt n =
  if n <= 0 then 0
  else begin
    let cube_le r = r <= 1 || r <= n / (r * r) in
    let lo = ref 1 and hi = ref 1 in
    while cube_le (2 * !hi) do
      hi := 2 * !hi
    done;
    lo := !hi;
    hi := 2 * !hi;
    (* invariant: cube_le lo && not (cube_le (hi+1)) after the loop *)
    while !hi - !lo > 1 do
      let mid = !lo + ((!hi - !lo) / 2) in
      if cube_le mid then lo := mid else hi := mid
    done;
    !lo
  end

(* ------------------------------------------------------------------ *)
(* Cubic-flavoured loss-based control (RFC 8312 shape, integer math)    *)
(* ------------------------------------------------------------------ *)

module Cubic = struct
  type state = {
    mutable cwnd : int;
    mutable ssthresh : int;
    mutable w_max : int;
    mutable epoch_start_ns : int; (* -1 = no epoch in progress *)
    mutable origin : int;
    mutable k_ms : int;
    mutable last_reduction_ns : int;
  }

  let beta_num = 7 (* beta = 0.7 *)
  let beta_den = 10

  let create () =
    { cwnd = 4;
      ssthresh = max_int;
      w_max = 0;
      epoch_start_ns = -1;
      origin = 0;
      k_ms = 0;
      (* "long ago", but far enough from min_int that [now - last] can
         never overflow for any simulated timestamp *)
      last_reduction_ns = min_int / 2 }

  let cwnd t = t.cwnd
  let w_max t = t.w_max
  let in_slow_start t = t.cwnd < t.ssthresh

  let reduce t ~now ~num ~den =
    t.w_max <- t.cwnd;
    t.cwnd <- max 2 (t.cwnd * num / den);
    t.ssthresh <- t.cwnd;
    t.epoch_start_ns <- -1;
    t.last_reduction_ns <- now

  (* W(t) = origin + C*(t - K)^3 with C = 0.4 pkt/s^3.  In milliseconds:
     C*(t_ms/1000)^3 = 4*t_ms^3 / 10^10, and
     K = cbrt((w_max - cwnd)/C) s  =>  k_ms = cbrt((w_max - cwnd) * 2.5e9). *)
  let target t ~now =
    if t.epoch_start_ns < 0 then begin
      t.epoch_start_ns <- now;
      let deficit = max 0 (t.w_max - t.cwnd) in
      t.k_ms <- icbrt (deficit * 2_500_000_000);
      t.origin <- max t.w_max t.cwnd
    end;
    let t_ms = (now - t.epoch_start_ns) / 1_000_000 in
    let d = t_ms - t.k_ms in
    t.origin + (4 * d * d * d / 10_000_000_000)

  let on_signal t (s : signal) =
    let guard_ns = max 1 s.srtt_ns in
    if s.loss then begin
      (* One multiplicative decrease per RTT: a burst of losses from the
         same overflow event counts once. *)
      if s.now - t.last_reduction_ns > guard_ns then
        reduce t ~now:s.now ~num:beta_num ~den:beta_den
    end
    else if s.ecn then begin
      (* ECN is an early, gentler signal than drop-tail loss. *)
      if s.now - t.last_reduction_ns > guard_ns then reduce t ~now:s.now ~num:85 ~den:100
    end
    else if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + 1
    else begin
      let tgt = target t ~now:s.now in
      if tgt > t.cwnd then t.cwnd <- t.cwnd + 1
    end;
    { cwnd = t.cwnd; pacing_ns = 0 }
end

(* ------------------------------------------------------------------ *)
(* BBR-flavoured rate-based control                                     *)
(* ------------------------------------------------------------------ *)

module Bbr = struct
  (* Pacing-gain cycle (percent): one probe phase, one drain phase, six
     cruise phases — each held for one min-RTT. *)
  let gain_cycle = [| 125; 75; 100; 100; 100; 100; 100; 100 |]

  let startup_gain = 277 (* ~2/ln2, percent *)
  let bw_window = 8

  type mode = Startup | Drain | Probe_bw

  type state = {
    mutable mode : mode;
    mutable phase : int;
    mutable phase_start_ns : int;
    bw_samples : int array;
    mutable bw_idx : int;
    mutable bw_count : int;
    mutable full_bw : int;
    mutable full_bw_rounds : int;
    mutable cwnd : int;
  }

  let create () =
    { mode = Startup;
      phase = 0;
      phase_start_ns = 0;
      bw_samples = Array.make bw_window 0;
      bw_idx = 0;
      bw_count = 0;
      full_bw = 0;
      full_bw_rounds = 0;
      cwnd = 8 }

  let btl_bw t =
    let m = ref 0 in
    for i = 0 to t.bw_count - 1 do
      if t.bw_samples.(i) > !m then m := t.bw_samples.(i)
    done;
    !m

  let phase t = if t.mode = Probe_bw then t.phase else -1
  let in_startup t = t.mode = Startup

  let push_bw t rate =
    if rate > 0 then begin
      t.bw_samples.(t.bw_idx) <- rate;
      t.bw_idx <- (t.bw_idx + 1) mod bw_window;
      if t.bw_count < bw_window then t.bw_count <- t.bw_count + 1
    end

  let gain t =
    match t.mode with
    | Startup -> startup_gain
    | Drain -> 50
    | Probe_bw -> gain_cycle.(t.phase)

  let on_signal t (s : signal) =
    push_bw t s.delivery_rate;
    let bw = btl_bw t in
    let min_rtt = if s.min_rtt_ns = max_int then max 1 s.srtt_ns else max 1 s.min_rtt_ns in
    (match t.mode with
     | Startup ->
       (* Exit startup once the bottleneck estimate has stopped growing
          (< 25% gain) for three consecutive signals. *)
       if bw > t.full_bw + (t.full_bw / 4) then begin
         t.full_bw <- bw;
         t.full_bw_rounds <- 0
       end
       else if bw > 0 then begin
         t.full_bw_rounds <- t.full_bw_rounds + 1;
         if t.full_bw_rounds >= 3 then begin
           t.mode <- Drain;
           t.phase_start_ns <- s.now
         end
       end
     | Drain ->
       if s.now - t.phase_start_ns >= min_rtt then begin
         t.mode <- Probe_bw;
         t.phase <- 0;
         t.phase_start_ns <- s.now
       end
     | Probe_bw ->
       if s.now - t.phase_start_ns >= min_rtt then begin
         t.phase <- (t.phase + 1) mod Array.length gain_cycle;
         t.phase_start_ns <- s.now
       end);
    (* cwnd caps inflight at twice the pipe; pacing sets the actual rate. *)
    let bdp = if bw > 0 then bw * min_rtt / 1_000_000_000 else 0 in
    t.cwnd <- max 4 (2 * bdp);
    if s.loss then t.cwnd <- max 4 (t.cwnd * 85 / 100);
    let pacing_ns =
      if bw > 0 then max 1 (100_000_000_000 / (bw * gain t)) else 0
    in
    { cwnd = t.cwnd; pacing_ns }
end

let cubic () =
  let st = Cubic.create () in
  { name = "cubic"; init = { cwnd = 4; pacing_ns = 0 }; on_signal = Cubic.on_signal st }

let bbr () =
  let st = Bbr.create () in
  { name = "bbr"; init = { cwnd = 8; pacing_ns = 0 }; on_signal = Bbr.on_signal st }
