(* Deterministic packet-level discrete-event network simulator
   (DESIGN.md section 16): flows share one bottleneck link; the sender
   side runs a congestion-control policy per flow.  Everything is integer
   nanoseconds on the Event_queue/Sim_clock substrate, and ties resolve
   in insertion order, so a run is a pure function of its inputs. *)

(* Hard stop; unfinished flows are censored here. *)
let horizon_ns = 60_000_000_000

type event =
  | Start of int                  (* flow index: arm the policy, first sends *)
  | Arrive of Link.packet         (* reaches the bottleneck ingress queue *)
  | Dequeue                       (* bottleneck finished serializing a packet *)
  | Ack of Link.packet            (* delivery notification back at the sender *)
  | Lost of { flow : int; seq : int } (* drop detected (dupack time) *)
  | Pace of int                   (* flow index: pacing timer fired *)

type flow_report = {
  f_id : int;
  f_size : int;
  f_fct_ns : int;
  f_delivered : int;
  f_losses : int;
  f_completed : bool;
}

type result = {
  policy : string;
  flows : flow_report array;
  duration_ns : int;
  delivered_pkts : int;
  retransmits : int;
  drops : int;
  ecn_marks : int;
  goodput_mbps : float;
  mean_fct_ms : float;
  p99_fct_ms : float;
  fairness : float;
  incomplete : int;
  digest : int;
}

let mix h v = ((h * 0x100000001b3) + (v land max_int)) land max_int

(* Jain's fairness index over per-flow delivery rates. *)
let jain rates =
  let n = Array.length rates in
  if n = 0 then 1.0
  else begin
    let sum = Array.fold_left ( +. ) 0.0 rates in
    let sum_sq = Array.fold_left (fun a r -> a +. (r *. r)) 0.0 rates in
    if sum_sq <= 0.0 then 1.0 else sum *. sum /. (float_of_int n *. sum_sq)
  end

let percentile sorted pct =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = ((pct * n) + 99) / 100 in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let run ~link ~make_cc (specs : Flow.spec array) =
  if Array.length specs = 0 then invalid_arg "Net_sim.run: no flows";
  let link = Link.create link in
  let q : event Event_queue.t = Event_queue.create () in
  let clock = Sim_clock.create () in
  let flows = Array.map Flow.create specs in
  let policies = Array.map make_cc specs in
  let digest = ref 0 in
  let policy_name = if Array.length policies = 0 then "" else policies.(0).Cc.name in
  let apply st (d : Cc.decision) =
    st.Flow.cwnd <- max 1 d.Cc.cwnd;
    st.Flow.pacing_ns <- max 0 d.Cc.pacing_ns
  in
  let signal_of st ~now ~rtt ~ecn ~loss =
    { Cc.now;
      rtt_ns = rtt;
      min_rtt_ns = st.Flow.min_rtt_ns;
      srtt_ns = st.Flow.srtt_ns;
      ecn;
      loss;
      inflight = st.Flow.inflight;
      cwnd = st.Flow.cwnd;
      delivered = st.Flow.delivered;
      delivery_rate = st.Flow.delivery_rate }
  in
  let rec try_send fi now =
    let st = flows.(fi) in
    if (not (Flow.completed st)) && st.Flow.inflight < st.Flow.cwnd && Flow.has_data st
    then begin
      if st.Flow.pacing_ns > 0 && now < st.Flow.next_send_ns then begin
        if not st.Flow.pace_armed then begin
          st.Flow.pace_armed <- true;
          Event_queue.push q ~time:st.Flow.next_send_ns (Pace fi)
        end
      end
      else begin
        let seq = Flow.take_seq st in
        st.Flow.inflight <- st.Flow.inflight + 1;
        if st.Flow.first_send_ns < 0 then st.Flow.first_send_ns <- now;
        st.Flow.next_send_ns <- max now st.Flow.next_send_ns + st.Flow.pacing_ns;
        (* Sender -> bottleneck ingress: a quarter of the base RTT. *)
        Event_queue.push q
          ~time:(now + (st.Flow.spec.Flow.base_rtt_ns / 4))
          (Arrive { Link.flow = fi; seq; sent_ns = now; ecn_marked = false });
        try_send fi now
      end
    end
  in
  let feedback_delay st = 3 * st.Flow.spec.Flow.base_rtt_ns / 4 in
  let handle now = function
    | Start fi ->
      apply flows.(fi) policies.(fi).Cc.init;
      try_send fi now
    | Pace fi ->
      flows.(fi).Flow.pace_armed <- false;
      try_send fi now
    | Arrive p ->
      let st = flows.(p.Link.flow) in
      (match Link.enqueue link p with
       | `Enqueued ->
         if not (Link.busy link) then begin
           Link.set_busy link true;
           Event_queue.push q ~time:(now + Link.tx_ns link) Dequeue
         end
       | `Dropped ->
         (* The sender learns of the hole roughly when the dupacks for the
            packets behind it would return. *)
         Event_queue.push q
           ~time:(now + feedback_delay st)
           (Lost { flow = p.Link.flow; seq = p.Link.seq }))
    | Dequeue ->
      (match Link.dequeue link with
       | Some p ->
         let st = flows.(p.Link.flow) in
         Event_queue.push q ~time:(now + feedback_delay st) (Ack p);
         if Link.depth link > 0 then
           Event_queue.push q ~time:(now + Link.tx_ns link) Dequeue
         else Link.set_busy link false
       | None -> Link.set_busy link false)
    | Ack p ->
      let fi = p.Link.flow in
      let st = flows.(fi) in
      st.Flow.inflight <- max 0 (st.Flow.inflight - 1);
      st.Flow.acked <- st.Flow.acked + 1;
      st.Flow.delivered <- st.Flow.delivered + 1;
      if p.Link.ecn_marked then st.Flow.ecn_acks <- st.Flow.ecn_acks + 1;
      let rtt = now - p.Link.sent_ns in
      Flow.observe_rtt st ~rtt_ns:rtt;
      Flow.observe_delivery st ~now;
      apply st
        (policies.(fi).Cc.on_signal
           (signal_of st ~now ~rtt ~ecn:p.Link.ecn_marked ~loss:false));
      digest := mix (mix (mix !digest fi) p.Link.seq) (now + st.Flow.cwnd);
      if st.Flow.delivered >= st.Flow.spec.Flow.size_pkts && not (Flow.completed st) then
        st.Flow.done_ns <- now
      else try_send fi now
    | Lost { flow = fi; seq } ->
      let st = flows.(fi) in
      st.Flow.inflight <- max 0 (st.Flow.inflight - 1);
      st.Flow.losses <- st.Flow.losses + 1;
      Flow.queue_rtx st seq;
      apply st (policies.(fi).Cc.on_signal (signal_of st ~now ~rtt:0 ~ecn:false ~loss:true));
      digest := mix (mix !digest (-fi - 1)) (seq + st.Flow.cwnd);
      try_send fi now
  in
  Array.iteri
    (fun fi (spec : Flow.spec) -> Event_queue.push q ~time:spec.Flow.start_ns (Start fi))
    specs;
  let stop = ref false in
  while not !stop do
    match Event_queue.pop q with
    | None -> stop := true
    | Some (time, _) when time > horizon_ns -> stop := true
    | Some (time, ev) ->
      Sim_clock.advance_to clock time;
      handle time ev
  done;
  let fcts = Array.map (fun st -> Flow.fct_ns st ~horizon_ns) flows in
  let reports =
    Array.mapi
      (fun i st ->
        { f_id = st.Flow.spec.Flow.id;
          f_size = st.Flow.spec.Flow.size_pkts;
          f_fct_ns = fcts.(i);
          f_delivered = st.Flow.delivered;
          f_losses = st.Flow.losses;
          f_completed = Flow.completed st })
      flows
  in
  let delivered_pkts = Array.fold_left (fun a st -> a + st.Flow.delivered) 0 flows in
  let retransmits = Array.fold_left (fun a st -> a + st.Flow.losses) 0 flows in
  let first_start =
    Array.fold_left (fun a (s : Flow.spec) -> min a s.Flow.start_ns) max_int specs
  in
  let last_finish =
    Array.fold_left
      (fun a st -> max a (if Flow.completed st then st.Flow.done_ns else horizon_ns))
      0 flows
  in
  let duration_ns = max 1 (last_finish - first_start) in
  let bits = delivered_pkts * Link.mtu_bytes * 8 in
  let sorted = Array.copy fcts in
  Array.sort compare sorted;
  let mean_fct_ns =
    Array.fold_left ( + ) 0 fcts / max 1 (Array.length fcts)
  in
  let rates =
    Array.mapi
      (fun i st ->
        if fcts.(i) <= 0 then 0.0
        else float_of_int st.Flow.delivered *. 1e9 /. float_of_int fcts.(i))
      flows
  in
  let lstats = Link.stats link in
  let incomplete =
    Array.fold_left (fun a st -> a + if Flow.completed st then 0 else 1) 0 flows
  in
  Array.iter (fun st -> digest := mix !digest st.Flow.cwnd) flows;
  { policy = policy_name;
    flows = reports;
    duration_ns;
    delivered_pkts;
    retransmits;
    drops = lstats.Link.s_dropped;
    ecn_marks = lstats.Link.s_marked;
    goodput_mbps = float_of_int bits *. 1e3 /. float_of_int duration_ns;
    mean_fct_ms = float_of_int mean_fct_ns /. 1e6;
    p99_fct_ms = float_of_int (percentile sorted 99) /. 1e6;
    fairness = jain rates;
    incomplete;
    digest = !digest }
