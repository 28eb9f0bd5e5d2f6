(* One serving shard: a tenant partition's rings, drain scratch, pinned
   datapath state and telemetry.  The shard itself is sink-agnostic — the
   [sink] record is the per-batch datapath callback and its digest.
   [Datapath] below is the standard sink: a shard-private {!Rmt.Control}
   with the prefetch collect program behind a per-shard circuit breaker,
   per-tenant execution-context slabs and a rolling per-tenant decision
   digest. *)

(* Compile-time conformance: the real ring presents exactly the surface
   the protocol module specifies, so the model checker's small-scope ring
   (Analysis.Mc_models, built on the same Protocol decision functions)
   and the implementation cannot drift apart silently. *)
module _ : Protocol.SPSC = Ring

type sink = {
  run : n:int -> tenants:int array -> pages:int array -> now:int -> unit;
  digest : unit -> int;
}

type t = {
  rings : Ring.t array; (* one SPSC ring per producer *)
  max_batch : int;
  (* Drain scratch columns, allocated once; [max_batch] long. *)
  d_tenants : int array;
  d_pages : int array;
  d_stamps : int array;
  sink : sink;
  (* Park protocol: the worker takes the mutex, publishes [parked],
     re-checks its rings and only then waits; producers that observe
     [parked] after a push serialize on the mutex, so the wakeup cannot
     be lost. *)
  park_mutex : Mutex.t;
  park_cond : Condition.t;
  parked : bool Atomic.t;
  c_batches : Obs.Counter.t; (* rmt.serve.<i>.batches *)
  c_invocations : Obs.Counter.t; (* rmt.serve.<i>.invocations *)
  h_queue_ns : Obs.Histo.t; (* rmt.serve.<i>.queue_ns *)
  mutable served : int; (* events drained into the sink (worker-owned) *)
}

let create ~index ~producers ~ring_capacity ~max_batch sink =
  if producers <= 0 then invalid_arg "Shard.create: producers must be positive";
  if max_batch <= 0 then invalid_arg "Shard.create: max_batch must be positive";
  let name = Printf.sprintf "rmt.serve.%d" index in
  { rings = Array.init producers (fun _ -> Ring.create ~capacity:ring_capacity);
    max_batch;
    d_tenants = Array.make max_batch 0;
    d_pages = Array.make max_batch 0;
    d_stamps = Array.make max_batch 0;
    sink;
    park_mutex = Mutex.create ();
    park_cond = Condition.create ();
    parked = Atomic.make false;
    c_batches = Obs.Counter.make (name ^ ".batches");
    c_invocations = Obs.Counter.make (name ^ ".invocations");
    h_queue_ns = Obs.Histo.make (name ^ ".queue_ns");
    served = 0 }

let ring t producer = t.rings.(producer)
let digest t = t.sink.digest ()
let served t = t.served

(* ------------------------------------------------------------------ *)
(* Draining                                                            *)
(* ------------------------------------------------------------------ *)

let drain_ring t ring ~now =
  let n = Ring.drain_into ring ~max:t.max_batch t.d_tenants t.d_pages t.d_stamps in
  if n > 0 then begin
    t.sink.run ~n ~tenants:t.d_tenants ~pages:t.d_pages ~now;
    (* Queueing latency: admission stamp -> drain. *)
    for i = 0 to n - 1 do
      let wait = now - Array.unsafe_get t.d_stamps i in
      let wait = if wait < 0 then 0 else wait in
      Obs.Histo.observe t.h_queue_ns wait
    done;
    t.served <- t.served + n;
    Obs.Counter.add t.c_invocations n;
    Obs.Counter.incr t.c_batches
  end;
  n

let rec drain_rings t ~now i acc =
  if i >= Array.length t.rings then acc
  else drain_rings t ~now (i + 1) (acc + drain_ring t t.rings.(i) ~now)

(* One sweep: up to [max_batch] events from each producer ring.  Returns
   the number of events served; zero-allocation when the rings are empty
   or the sink's steady state is. *)
let drain_once t ~now = drain_rings t ~now 0 0

(* ------------------------------------------------------------------ *)
(* Parking                                                             *)
(* ------------------------------------------------------------------ *)

let rec rings_empty_from t i =
  i >= Array.length t.rings || (Ring.is_empty t.rings.(i) && rings_empty_from t (i + 1))

let park t ~should_stop =
  Mutex.lock t.park_mutex;
  (* Exception-safe: [should_stop] reaches arbitrary caller code (a
     fault-injecting stop probe, say) — a raise must still clear the
     parked flag and release the mutex, or every later wake/park would
     deadlock the shard. *)
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.parked false;
      Mutex.unlock t.park_mutex)
    (fun () ->
      Atomic.set t.parked true;
      (* Re-check after publishing [parked]: a producer that pushed before
         it could observe the flag left work we must not sleep on.  A
         spurious wakeup just returns to the drain loop. *)
      if Protocol.should_sleep ~should_stop:(should_stop ()) ~rings_empty:(rings_empty_from t 0)
      then Condition.wait t.park_cond t.park_mutex)

(* Producer-side nudge after a push: a single atomic load unless the
   worker is actually parked. *)
let wake t =
  if Atomic.get t.parked then begin
    Mutex.lock t.park_mutex;
    Condition.broadcast t.park_cond;
    Mutex.unlock t.park_mutex
  end

(* Unconditional wake for shutdown: serializes on the mutex so a worker
   between publishing [parked] and waiting cannot miss it. *)
let wake_force t =
  Mutex.lock t.park_mutex;
  Condition.broadcast t.park_cond;
  Mutex.unlock t.park_mutex

(* ------------------------------------------------------------------ *)
(* Standard datapath sink                                              *)
(* ------------------------------------------------------------------ *)

module Datapath = struct
  let hook = Rkd.Hooks.lookup_swap_cache
  let program_name = "pf_collect"

  (* Stock-heuristic marker, distinguishable from any real collect
     result; served per slot while the shard's breaker is open. *)
  let fallback_marker = min_int

  (* Rolling per-tenant digest lives at a reserved dense context key so
     the per-slot update is allocation-free.  Must stay clear of the
     collect program's keys (pid/page/last_page/heuristic at 0..3,
     feature block from 8) and the predict result block at 64. *)
  let digest_key = 120

  (* Round decomposition (see [run]) keeps, per tenant, the last drain
     window it appeared in and its round within that window, also at
     reserved dense keys: no scratch set, no allocation. *)
  let window_key = 121
  let round_key = 122

  let () = assert (round_key < Rmt.Ctxt.dense_bound)

  type dp = {
    control : Rmt.Control.t;
    table : Rmt.Table.t;
    vm : Rmt.Vm.t;
    breaker : Rmt.Breaker.t;
    batch : Rmt.Batch.t;
    ctxts : (int, Rmt.Ctxt.t) Hashtbl.t; (* tenant -> pinned slab *)
    now_cell : int array; (* drain timestamp; the control clock reads it *)
    mutable window : int; (* drain windows served; stamps [window_key] *)
    (* Per-window scratch, [max_batch] long: each event's round and
       context, the events in round-major order, and the counting sort's
       round offsets ([max_batch + 1] long). *)
    ev_round : int array;
    ev_ctxt : Rmt.Ctxt.t array;
    order : int array;
    offsets : int array;
    h_slots : Obs.Histo.t; (* <view_ns>.batch_slots: slots per dispatch *)
  }

  let mix h v =
    let h = (h lxor v) * 0x9e3779b1 in
    h land max_int

  let create ~view_ns ~max_batch () =
    let control = Rmt.Control.create ~view_ns () in
    let params = Rkd.Prefetch_rmt.default_params in
    let vm =
      match Rmt.Control.install control (Rkd.Prefetch_rmt.build_collect_program params) with
      | Ok vm -> vm
      | Error e -> invalid_arg ("Shard.Datapath.create: install failed: " ^ e)
    in
    let table =
      Rmt.Control.create_table control ~name:"serve_access_tab"
        ~match_keys:[| Rkd.Hooks.key_pid |] ~default:(Rmt.Table.Run vm)
    in
    Rmt.Control.attach control ~hook table;
    let breaker =
      Rmt.Control.protect control ~hook ~programs:[ program_name ]
        ~fallback:(fun _ -> fallback_marker) ()
    in
    let batch = Rmt.Batch.create ~capacity:max_batch in
    let d =
      { control;
        table;
        vm;
        breaker;
        batch;
        ctxts = Hashtbl.create 64;
        now_cell = Array.make 1 0;
        window = 0;
        ev_round = Array.make max_batch 0;
        ev_ctxt = Array.make max_batch batch.Rmt.Batch.ctxts.(0);
        order = Array.make max_batch 0;
        offsets = Array.make (max_batch + 1) 0;
        h_slots = Obs.Histo.make (view_ns ^ ".batch_slots") }
    in
    Rmt.Control.set_clock control (fun () -> d.now_cell.(0));
    d

  (* First touch of a tenant allocates its context slab.  The table
     default runs the installed program for every tenant, so batches stay
     uniform-[Run] and keep the SoA kernel. *)
  let ctxt_for d tenant =
    match Hashtbl.find d.ctxts tenant with
    | c -> c
    | exception Not_found ->
      let c = Rmt.Ctxt.create () in
      Hashtbl.replace d.ctxts tenant c;
      c

  (* Fire the events [order.(lo) .. order.(hi - 1)] — one round, so no
     tenant twice — as one batch, then fold each slot's decision into
     its tenant's rolling digest.  [key_pid]/[key_page] are set here,
     just before the round fires: a tenant's earlier round has already
     run on the same context. *)
  let fire_round d tenants pages lo hi =
    let b = d.batch in
    for s = 0 to hi - lo - 1 do
      let i = Array.unsafe_get d.order (lo + s) in
      let ctxt = Array.unsafe_get d.ev_ctxt i in
      Rmt.Ctxt.set ctxt Rkd.Hooks.key_pid (Array.unsafe_get tenants i);
      Rmt.Ctxt.set ctxt Rkd.Hooks.key_page (Array.unsafe_get pages i);
      b.Rmt.Batch.ctxts.(s) <- ctxt
    done;
    Rmt.Batch.set_n b (hi - lo);
    ignore (Rmt.Control.fire_batch d.control ~hook b : bool);
    Obs.Histo.observe d.h_slots (hi - lo);
    (* Per tenant the fold is FIFO-ordered (rings preserve per-producer
       order, tenants are shard-pinned, rounds fire in order), and the
       cross-tenant combine in [digest] is an order-independent xor — so
       the fleet digest is identical for any shard count and any batch
       boundaries. *)
    for s = 0 to hi - lo - 1 do
      let ctxt = b.Rmt.Batch.ctxts.(s) in
      Rmt.Ctxt.set ctxt digest_key
        (mix (Rmt.Ctxt.get ctxt digest_key) b.Rmt.Batch.results.(s))
    done

  (* Round decomposition: the r-th event of each tenant in the window
     goes to round r, and rounds fire in order.  A round never holds the
     same tenant twice, so the instruction-major SoA kernel cannot
     interleave one context's reads and writes across slots — each
     tenant keeps scalar (sequential) semantics, and therefore the same
     results for any batch boundaries and any shard count.  A counting
     sort groups the events by round, in arrival order within a round. *)
  let run d ~n ~tenants ~pages ~now =
    d.now_cell.(0) <- now;
    let window = d.window + 1 in
    d.window <- window;
    let rounds = ref 0 in
    (* Bursts repeat a tenant back to back: reuse the last context
       instead of a table lookup. *)
    let last_tenant = ref 0 and last_ctxt = ref d.batch.Rmt.Batch.ctxts.(0) in
    for i = 0 to n - 1 do
      let tenant = Array.unsafe_get tenants i in
      let ctxt =
        if i > 0 && tenant = !last_tenant then !last_ctxt
        else begin
          let c = ctxt_for d tenant in
          last_tenant := tenant;
          last_ctxt := c;
          c
        end
      in
      let r =
        if Rmt.Ctxt.get ctxt window_key = window then Rmt.Ctxt.get ctxt round_key + 1
        else begin
          Rmt.Ctxt.set ctxt window_key window;
          0
        end
      in
      Rmt.Ctxt.set ctxt round_key r;
      d.ev_ctxt.(i) <- ctxt;
      d.ev_round.(i) <- r;
      if r >= !rounds then rounds := r + 1
    done;
    let offsets = d.offsets in
    Array.fill offsets 0 (!rounds + 1) 0;
    for i = 0 to n - 1 do
      let r = d.ev_round.(i) in
      offsets.(r + 1) <- offsets.(r + 1) + 1
    done;
    for r = 1 to !rounds do
      offsets.(r) <- offsets.(r) + offsets.(r - 1)
    done;
    (* Placing an event advances its round's offset, so afterwards
       [offsets.(r)] is where round [r] ends and round [r + 1] starts. *)
    for i = 0 to n - 1 do
      let r = d.ev_round.(i) in
      d.order.(offsets.(r)) <- i;
      offsets.(r) <- offsets.(r) + 1
    done;
    for r = 0 to !rounds - 1 do
      fire_round d tenants pages (if r = 0 then 0 else offsets.(r - 1)) offsets.(r)
    done

  let digest d =
    Hashtbl.fold
      (fun tenant ctxt acc -> acc lxor mix tenant (Rmt.Ctxt.get ctxt digest_key))
      d.ctxts 0

  let tenant_count d = Hashtbl.length d.ctxts
  let table d = d.table
  let vm d = d.vm
  let breaker d = d.breaker
  let batch_slots d = d.h_slots

  let sink d =
    { run = (fun ~n ~tenants ~pages ~now -> run d ~n ~tenants ~pages ~now);
      digest = (fun () -> digest d) }
end
