(* Learned congestion control through the RMT datapath (DESIGN.md
   section 16): the third kernel decision point after prefetch and
   scheduling.  Every ACK-time signal becomes an integer feature block;
   the installed [net_cc] program consults a flat decision tree and
   returns one of a few cwnd/pacing action classes.  The tree is
   bootstrapped from a hindsight oracle and refined online from observed
   next-interval outcomes, like the prefetcher's window retraining.  The
   hook is protected: when the breaker is open (or the program traps) the
   decision comes verbatim from an always-warm stock Cubic instance. *)

type params = { window_capacity : int; retrain_period : int; min_retrain_samples : int }

let default_params = { window_capacity = 4096; retrain_period = 512; min_retrain_samples = 256 }

(* Action classes, the cwnd ceiling (packets) and the synthetic oracle
   samples behind the initial tree. *)
let n_actions = 5
let cwnd_cap = 512
let bootstrap_samples = 768

(* Feature layout at [Hooks.key_feature_base]:
   0 srtt (100 us units)     1 min_rtt (100 us)   2 srtt/min_rtt (percent)
   3 ECN on this ACK (0/1)   4 loss event (0/1)   5 cwnd (packets)
   6 inflight*100/cwnd       7 delivery rate (100 pkt/s units) *)
let n_features = 8

(* Action classes: how the next cwnd derives from the current one. *)
let apply_action ~cwnd action =
  let c =
    match action with
    | 0 -> cwnd / 2
    | 1 -> cwnd * 4 / 5
    | 2 -> cwnd
    | 3 -> cwnd + 1
    | _ -> cwnd + 3
  in
  max 2 (min cwnd_cap c)

(* Hindsight oracle shared by the bootstrap set and the online labeller:
   given what one control interval revealed, which action class should
   have been taken?  Loss means halve; ECN or a badly inflated RTT means
   back off gently; a mildly inflated RTT means hold; an empty queue
   (RTT at the propagation floor) means push hard. *)
let oracle ~rtt_ratio_pct ~ecn ~loss =
  if loss then 0
  else if ecn || rtt_ratio_pct >= 150 then 1
  else if rtt_ratio_pct >= 120 then 2
  else if rtt_ratio_pct <= 105 then 4
  else 3

let fallback_marker = -1

type sample = { s_features : int array; s_label : int }

(* Outcome snapshot taken when a decision fires; labelled one smoothed
   RTT later from what actually happened in between. *)
type pending = {
  p_features : int array;
  p_t0 : int;
  p_losses : int;
  p_ecns : int;
}

type flow_state = {
  ctxt : Rmt.Ctxt.t;
  stock : Ksim.Cc.Cubic.state;
  mutable losses : int;
  mutable ecns : int;
  mutable pend : pending option;
  mutable last_decrease_ns : int;
}

type t = {
  params : params;
  control : Rmt.Control.t;
  table : Rmt.Table.t;
  vm : Rmt.Vm.t;
  breaker : Rmt.Breaker.t;
  flows : (int, flow_state) Hashtbl.t;
  ring : sample option array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable since_retrain : int;
  mutable retrains : int;
  mutable training_samples : int;
  mutable decisions : int;
  mutable stock_decisions : int;
  mutable now_ns : int;
}

let build_program () =
  let open Rmt in
  let b = Builder.create ~name:"net_cc" ~vmem_size:n_features () in
  let _slot = Builder.add_model b ~n_features in
  Builder.add_capability b (Program.Guarded { lo = 0; hi = n_actions - 1 });
  Builder.emit b (Insn.Vec_ld_ctxt (0, Hooks.key_feature_base, n_features));
  Builder.emit b (Insn.Call_ml (0, 0, n_features));
  Builder.emit b Insn.Exit;
  Builder.finish b ()

(* Synthetic-but-coherent feature vectors labelled by the oracle: the
   tree starts out mimicking the stock rules and online retraining bends
   it toward what the live workload rewards. *)
let bootstrap_tree ~seed =
  let rng = Kml.Rng.create (seed lxor 0x7e7) in
  let ds = Kml.Dataset.create ~n_features ~n_classes:n_actions in
  for _ = 1 to bootstrap_samples do
    let min_rtt = 1 + Kml.Rng.int rng 400 in
    let ratio = 95 + Kml.Rng.int rng 220 in
    let srtt = min_rtt * ratio / 100 in
    let ecn = Kml.Rng.int rng 5 = 0 in
    let loss = Kml.Rng.int rng 6 = 0 in
    let features =
      [| srtt;
         min_rtt;
         ratio;
         (if ecn then 1 else 0);
         (if loss then 1 else 0);
         2 + Kml.Rng.int rng 256;
         Kml.Rng.int rng 120;
         Kml.Rng.int rng 10_000 |]
    in
    Kml.Dataset.add ds
      { Kml.Dataset.features; label = oracle ~rtt_ratio_pct:ratio ~ecn ~loss }
  done;
  Kml.Decision_tree.train ds

let create ?(params = default_params) ?(seed = 42) () =
  let control = Rmt.Control.create ~seed () in
  let model = Rmt.Model_store.Tree (bootstrap_tree ~seed) in
  let (_ : Rmt.Model_store.handle) =
    Rmt.Control.register_model control ~name:"net_model" model
  in
  let vm =
    match Rmt.Control.install control ~model_names:[ "net_model" ] (build_program ()) with
    | Ok vm -> vm
    | Error e -> invalid_arg ("Net_rmt: program rejected: " ^ e)
  in
  let table =
    Rmt.Control.create_table control ~name:"net_cc_tab" ~match_keys:[||]
      ~default:(Rmt.Table.Run vm)
  in
  Rmt.Control.attach control ~hook:Hooks.net_cc table;
  (* Failsafe wiring (DESIGN.md section 12): the program is Guarded to
     [0, n_actions), so the negative marker unambiguously says "breaker
     open / trapped" and the caller serves the stock Cubic decision. *)
  let breaker =
    Rmt.Control.protect control ~hook:Hooks.net_cc ~programs:[ "net_cc" ]
      ~fallback:(fun _ -> fallback_marker)
      ()
  in
  let t =
    { params;
      control;
      table;
      vm;
      breaker;
      flows = Hashtbl.create 16;
      ring = Array.make params.window_capacity None;
      ring_head = 0;
      ring_len = 0;
      since_retrain = 0;
      retrains = 0;
      training_samples = 0;
      decisions = 0;
      stock_decisions = 0;
      now_ns = 0 }
  in
  Rmt.Control.set_clock control (fun () -> t.now_ns);
  t

let flow_state t flow =
  match Hashtbl.find_opt t.flows flow with
  | Some st -> st
  | None ->
    let st =
      { ctxt = Rmt.Ctxt.create ();
        stock = Ksim.Cc.Cubic.create ();
        losses = 0;
        ecns = 0;
        pend = None;
        last_decrease_ns = min_int / 2 }
    in
    Hashtbl.replace t.flows flow st;
    st

let ring_push t sample =
  t.ring.(t.ring_head) <- Some sample;
  t.ring_head <- (t.ring_head + 1) mod t.params.window_capacity;
  if t.ring_len < t.params.window_capacity then t.ring_len <- t.ring_len + 1;
  t.training_samples <- t.training_samples + 1

let retrain t =
  let ds = Kml.Dataset.create ~n_features ~n_classes:n_actions in
  let cap = t.params.window_capacity in
  let start = (t.ring_head - t.ring_len + cap) mod cap in
  for i = 0 to t.ring_len - 1 do
    match t.ring.((start + i) mod cap) with
    | Some s -> Kml.Dataset.add ds { Kml.Dataset.features = s.s_features; label = s.s_label }
    | None -> assert false
  done;
  let tree = Kml.Decision_tree.train ds in
  if Kml.Model_cost.within (Kml.Model_cost.of_tree tree) Kml.Model_cost.default_budget
  then begin
    match Rmt.Control.update_model t.control ~name:"net_model" (Rmt.Model_store.Tree tree) with
    | Ok () -> t.retrains <- t.retrains + 1
    | Error _ -> ()
  end

let ratio_pct (s : Ksim.Cc.signal) =
  if s.Ksim.Cc.min_rtt_ns = max_int || s.Ksim.Cc.min_rtt_ns <= 0 || s.Ksim.Cc.srtt_ns = 0
  then 100
  else s.Ksim.Cc.srtt_ns * 100 / s.Ksim.Cc.min_rtt_ns

let features_of (s : Ksim.Cc.signal) =
  let to_100us ns = if ns = max_int then 0 else ns / 100_000 in
  [| to_100us s.Ksim.Cc.srtt_ns;
     to_100us s.Ksim.Cc.min_rtt_ns;
     ratio_pct s;
     (if s.Ksim.Cc.ecn then 1 else 0);
     (if s.Ksim.Cc.loss then 1 else 0);
     s.Ksim.Cc.cwnd;
     s.Ksim.Cc.inflight * 100 / max 1 s.Ksim.Cc.cwnd;
     s.Ksim.Cc.delivery_rate / 100 |]

(* Resolve the previous decision's pending snapshot against what one
   control interval actually revealed, then push the labelled sample. *)
let label_pending t st (s : Ksim.Cc.signal) =
  match st.pend with
  | None -> ()
  | Some p ->
    if s.Ksim.Cc.now - p.p_t0 >= max 1 s.Ksim.Cc.srtt_ns then begin
      st.pend <- None;
      let label =
        oracle ~rtt_ratio_pct:(ratio_pct s) ~ecn:(st.ecns > p.p_ecns)
          ~loss:(st.losses > p.p_losses)
      in
      ring_push t { s_features = p.p_features; s_label = label };
      t.since_retrain <- t.since_retrain + 1;
      if
        t.since_retrain >= t.params.retrain_period
        && t.ring_len >= t.params.min_retrain_samples
      then begin
        t.since_retrain <- 0;
        retrain t
      end
    end

let decide t ~flow (s : Ksim.Cc.signal) =
  t.now_ns <- s.Ksim.Cc.now;
  t.decisions <- t.decisions + 1;
  let st = flow_state t flow in
  if s.Ksim.Cc.loss then st.losses <- st.losses + 1;
  if s.Ksim.Cc.ecn then st.ecns <- st.ecns + 1;
  (* The stock heuristic tracks every signal regardless of who decides,
     so a breaker-open fallback is the genuine Cubic trajectory. *)
  let stock_dec = Ksim.Cc.Cubic.on_signal st.stock s in
  label_pending t st s;
  let features = features_of s in
  Rmt.Ctxt.set st.ctxt Hooks.key_flow flow;
  Array.iteri (fun i v -> Rmt.Ctxt.set st.ctxt (Hooks.key_feature_base + i) v) features;
  match Rmt.Control.fire t.control ~hook:Hooks.net_cc ~ctxt:st.ctxt with
  | Some action when action <> fallback_marker ->
    (* One multiplicative decrease per smoothed RTT: a congested window's
       worth of ACKs reports the same queue once, not [cwnd] times. *)
    let action =
      if action <= 1 then
        if s.Ksim.Cc.now - st.last_decrease_ns > max 1 s.Ksim.Cc.srtt_ns then begin
          st.last_decrease_ns <- s.Ksim.Cc.now;
          action
        end
        else 2
      else action
    in
    let cwnd = apply_action ~cwnd:s.Ksim.Cc.cwnd action in
    (* Pace the window out over one smoothed RTT so the sending rate
       follows the window without ack-clocked bursts. *)
    let pacing_ns =
      if s.Ksim.Cc.srtt_ns > 0 then max 1 (s.Ksim.Cc.srtt_ns / cwnd) else 0
    in
    st.pend <-
      Some
        { p_features = features;
          p_t0 = s.Ksim.Cc.now;
          p_losses = st.losses;
          p_ecns = st.ecns };
    { Ksim.Cc.cwnd; pacing_ns }
  | Some _ | None ->
    (* Breaker open or dispatch contained a trap: serve stock Cubic and
       drop the learner's in-flight snapshot — its outcome window now
       reflects the stock policy, not the learned one. *)
    t.stock_decisions <- t.stock_decisions + 1;
    st.pend <- None;
    stock_dec

let make_cc t (spec : Ksim.Flow.spec) =
  { Ksim.Cc.name = "rmt-ml";
    init = { Ksim.Cc.cwnd = 4; pacing_ns = 0 };
    on_signal = (fun s -> decide t ~flow:spec.Ksim.Flow.id s) }

let breaker t = t.breaker

type stats = {
  decisions : int;
  stock_decisions : int;
  fallback_decisions : int;
  retrains : int;
  training_samples : int;
  model_invocations : int;
  breaker_trips : int;
}

let stats t =
  let model_invocations =
    match Rmt.Model_store.find (Rmt.Control.models t.control) "net_model" with
    | Some h -> Rmt.Model_store.invocations (Rmt.Control.models t.control) h
    | None -> 0
  in
  { decisions = t.decisions;
    stock_decisions = t.stock_decisions;
    fallback_decisions =
      Rmt.Pipeline.fallback_served (Rmt.Control.pipeline t.control) ~hook:Hooks.net_cc;
    retrains = t.retrains;
    training_samples = t.training_samples;
    model_invocations;
    breaker_trips = Rmt.Breaker.opens t.breaker }
