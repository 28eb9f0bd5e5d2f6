(* Sharded multi-tenant serving front-end (DESIGN.md section 14).

   Tenants are hash-pinned to shards, so a tenant's execution context,
   table entries and breaker live on exactly one shard and its events are
   served in FIFO order; producers talk to each shard through a private
   SPSC ring, so admission never takes a lock.  Shards are drained either
   inline on the caller's domain ([drain] — the single-domain and test
   mode) or by one pinned worker domain each ([start]/[stop]). *)

type config = {
  shards : int;
  producers : int;
  ring_capacity : int;
  max_batch : int;
  tokens_per_sec : int; (* per-producer admission rate; 0 = unlimited *)
  burst : int;
}

let default_config =
  { shards = 1;
    producers = 1;
    ring_capacity = 1024;
    max_batch = 64;
    tokens_per_sec = 0;
    burst = 1024 }

type t = {
  shards : Shard.t array;
  limiters : Rmt.Rate_limit.t array; (* one per producer; empty = unlimited *)
  (* Coarse shared clock (ns): producers stamp admissions and workers
     stamp drains from it.  An atomic heartbeat rather than a syscall
     per event — gettimeofday would box a float on the admission path. *)
  now_ns : int Atomic.t;
  stop : bool Atomic.t;
  mutable workers : Par.Pinned.t array;
  c_admitted : Obs.Counter.t;
  c_throttled : Obs.Counter.t;
  c_backpressure : Obs.Counter.t;
}

let create ?(config = default_config) ~make_sink () =
  if config.shards <= 0 then invalid_arg "Serving.create: shards must be positive";
  if config.producers <= 0 then invalid_arg "Serving.create: producers must be positive";
  let shards =
    Array.init config.shards (fun index ->
        let sink = make_sink ~index ~view_ns:(Printf.sprintf "rmt.serve.%d" index) in
        Shard.create ~index ~producers:config.producers
          ~ring_capacity:config.ring_capacity ~max_batch:config.max_batch sink)
  in
  let limiters =
    if config.tokens_per_sec <= 0 then [||]
    else
      Array.init config.producers (fun _ ->
          Rmt.Rate_limit.create ~tokens_per_sec:config.tokens_per_sec ~burst:config.burst
            ~now:0)
  in
  { shards;
    limiters;
    now_ns = Atomic.make 0;
    stop = Atomic.make false;
    workers = [||];
    c_admitted = Obs.Counter.make "rmt.serve.admitted";
    c_throttled = Obs.Counter.make "rmt.serve.throttled";
    c_backpressure = Obs.Counter.make "rmt.serve.backpressure" }

let shards t = t.shards

(* The clock is advanced by whoever owns time in the host program (the
   bench's producer loop, the simulator tick, a timer domain): monotone
   max so concurrent heartbeats never step backwards. *)
let rec set_now t now =
  let cur = Atomic.get t.now_ns in
  if now > cur && not (Atomic.compare_and_set t.now_ns cur now) then set_now t now

(* Tenant -> shard: multiplicative hash so adjacent tenant ids spread.
   Must stay stable across runs — the digest tests compare fleets. *)
let shard_of_tenant t tenant =
  let h = tenant * 0x9e3779b1 land max_int in
  h mod Array.length t.shards

(* Admission: one rate-limiter grant (all-integer, allocation-free),
   then one SPSC push.  [`Throttled] is an admission-policy refusal,
   [`Backpressure] a full ring (the shard is behind); both leave the
   event undelivered and count in rmt.serve.{throttled,backpressure}. *)
let submit t ~producer ~tenant ~page =
  let now = Atomic.get t.now_ns in
  let granted =
    Array.length t.limiters = 0
    || Rmt.Rate_limit.grant t.limiters.(producer) ~now ~request:1 = 1
  in
  if not granted then begin
    Obs.Counter.incr t.c_throttled;
    `Throttled
  end
  else begin
    let shard = Array.unsafe_get t.shards (shard_of_tenant t tenant) in
    if Ring.try_push (Shard.ring shard producer) ~tenant ~page ~stamp:now then begin
      Obs.Counter.incr t.c_admitted;
      Shard.wake shard;
      `Admitted
    end
    else begin
      Obs.Counter.incr t.c_backpressure;
      `Backpressure
    end
  end

let admitted t = Obs.Counter.value t.c_admitted

(* ------------------------------------------------------------------ *)
(* Inline mode                                                         *)
(* ------------------------------------------------------------------ *)

let rec drain_from t i acc =
  if i >= Array.length t.shards then acc
  else drain_from t (i + 1) (acc + Shard.drain_once t.shards.(i) ~now:(Atomic.get t.now_ns))

(* One sweep over every shard on the calling domain.  Must not be mixed
   with [start] — a shard has exactly one consumer. *)
let drain t = drain_from t 0 0

let rec drain_until_idle t =
  if drain t > 0 then drain_until_idle t

(* ------------------------------------------------------------------ *)
(* Pinned workers                                                      *)
(* ------------------------------------------------------------------ *)

let spin_rounds = 64

let worker_loop t shard =
  let idle = ref 0 in
  while not (Atomic.get t.stop) do
    let n = Shard.drain_once shard ~now:(Atomic.get t.now_ns) in
    if n > 0 then idle := 0
    else begin
      incr idle;
      if !idle >= spin_rounds then begin
        Shard.park shard ~should_stop:(fun () -> Atomic.get t.stop);
        idle := 0
      end
      else Domain.cpu_relax ()
    end
  done;
  (* Final sweep: everything admitted before [stop] was published must
     still be served. *)
  while Shard.drain_once shard ~now:(Atomic.get t.now_ns) > 0 do
    ()
  done

let start t =
  if Array.length t.workers > 0 then invalid_arg "Serving.start: already started";
  Atomic.set t.stop false;
  (* Snapshot the caller's fault-injection scope once, then split it per
     worker: fault plans are domain-local (DLS), so without this a chaos
     plan armed on the control domain would never reach the shard
     datapaths (and sharing one rng across workers would race). *)
  let cap = Rmt.Fault.capture () in
  t.workers <-
    Array.init (Array.length t.shards) (fun i ->
        let worker_cap = Rmt.Fault.capture_for ~index:i cap in
        Par.Pinned.spawn (fun () ->
            Rmt.Fault.with_capture worker_cap (fun () -> worker_loop t t.shards.(i))))

let stop t =
  if Array.length t.workers > 0 then begin
    Atomic.set t.stop true;
    Array.iter Shard.wake_force t.shards;
    Array.iter Par.Pinned.join t.workers;
    t.workers <- [||]
  end

(* ------------------------------------------------------------------ *)
(* Fleet views                                                         *)
(* ------------------------------------------------------------------ *)

let served t = Array.fold_left (fun acc s -> acc + Shard.served s) 0 t.shards
let digest t = Array.fold_left (fun acc s -> acc lxor Shard.digest s) 0 t.shards

(* ------------------------------------------------------------------ *)
(* Standard fleets                                                     *)
(* ------------------------------------------------------------------ *)

let create_datapath ?(config = default_config) () =
  let dps = Array.make config.shards None in
  let t =
    create ~config
      ~make_sink:(fun ~index ~view_ns ->
        let dp = Shard.Datapath.create ~view_ns ~max_batch:config.max_batch () in
        dps.(index) <- Some dp;
        Shard.Datapath.sink dp)
      ()
  in
  let dps =
    Array.map (function Some dp -> dp | None -> assert false) dps
  in
  (t, dps)
