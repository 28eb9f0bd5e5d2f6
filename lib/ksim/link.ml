type config = { queue_capacity : int; ecn_threshold : int }

let rate_bytes_per_sec = 12_500_000 (* 100 Mbit/s *)
let mtu_bytes = 1500

type packet = { flow : int; seq : int; sent_ns : int; ecn_marked : bool }

type t = {
  config : config;
  tx_ns : int;
  queue : packet Queue.t;
  mutable busy : bool;
  mutable enqueued : int;
  mutable dropped : int;
  mutable marked : int;
  mutable busy_ns : int;
}

let create config =
  if config.queue_capacity < 1 then invalid_arg "Link.create: queue capacity must be >= 1";
  { config;
    tx_ns = mtu_bytes * 1_000_000_000 / rate_bytes_per_sec;
    queue = Queue.create ();
    busy = false;
    enqueued = 0;
    dropped = 0;
    marked = 0;
    busy_ns = 0 }

let tx_ns t = t.tx_ns
let config t = t.config
let depth t = Queue.length t.queue
let busy t = t.busy
let set_busy t b = t.busy <- b

(* Drop-tail with an optional ECN marking threshold: a packet admitted
   while the queue already holds [ecn_threshold] or more packets is CE
   marked instead of dropped (DCTCP-style), so delay-aware senders see
   congestion before the queue overflows. *)
let enqueue t packet =
  if Queue.length t.queue >= t.config.queue_capacity then begin
    t.dropped <- t.dropped + 1;
    `Dropped
  end
  else begin
    let mark = t.config.ecn_threshold > 0 && Queue.length t.queue >= t.config.ecn_threshold in
    if mark then t.marked <- t.marked + 1;
    t.enqueued <- t.enqueued + 1;
    Queue.push { packet with ecn_marked = packet.ecn_marked || mark } t.queue;
    `Enqueued
  end

let dequeue t =
  match Queue.pop t.queue with
  | p ->
    t.busy_ns <- t.busy_ns + t.tx_ns;
    Some p
  | exception Queue.Empty -> None

type stats = { s_enqueued : int; s_dropped : int; s_marked : int; s_busy_ns : int }

let stats t =
  { s_enqueued = t.enqueued; s_dropped = t.dropped; s_marked = t.marked; s_busy_ns = t.busy_ns }
