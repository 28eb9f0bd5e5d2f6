type origin = Demand | Prefetch

(* [capacity] slots in flat arrays.  [prev]/[next] link the slots into the
   LRU list, most recently used at [head]; -1 ends it.  Slots
   [0, resident) are in use: a slot is freed only by the eviction that
   makes room for an insert, which takes it over at once.  [index] is an
   open-addressed (linear probing) map from page to slot, -1 = empty, kept
   at most half full. *)
type t = {
  capacity : int;
  pages : int array;
  ready : int array;
  unused_prefetch : bool array;
  prev : int array;
  next : int array;
  index : int array;
  mask : int;
  shift : int;
  mutable resident : int;
  mutable head : int;
  mutable tail : int;
  mutable evicted_unused : int;
  mutable hit_ready : int;
  mutable hit_first_use : bool;
}

(* Process-wide simulation telemetry: the page-cache loop is the inner
   loop of every mem_sim experiment, so these are plain striped counters
   (no per-instance storage to keep [lookup] allocation-free). *)
let c_hits = Obs.Counter.make "ksim.page_cache.hits"
let c_misses = Obs.Counter.make "ksim.page_cache.misses"
let c_evictions = Obs.Counter.make "ksim.page_cache.evictions"

let create ~capacity =
  if capacity <= 0 then invalid_arg "Page_cache.create: capacity must be positive";
  let rec bits b = if 1 lsl b >= 2 * capacity then b else bits (b + 1) in
  let bits = bits 1 in
  { capacity;
    pages = Array.make capacity 0;
    ready = Array.make capacity 0;
    unused_prefetch = Array.make capacity false;
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    index = Array.make (1 lsl bits) (-1);
    mask = (1 lsl bits) - 1;
    shift = Sys.int_size - bits;
    resident = 0;
    head = -1;
    tail = -1;
    evicted_unused = 0;
    hit_ready = 0;
    hit_first_use = false }

let resident t = t.resident

(* Multiplicative hashing: the top bits of the product. *)
let home t page = (page * 0x2545F4914F6CDD1D) lsr t.shift

(* The index position holding [page], or the empty position that ends its
   probe sequence. *)
let rec probe t page i =
  let s = t.index.(i) in
  if s < 0 || t.pages.(s) = page then i else probe t page ((i + 1) land t.mask)

let find t page = probe t page (home t page)

(* Backward-shift deletion: walk the run after [hole] and move back every
   entry whose probe sequence passes through the hole, so no lookup ever
   stops early at a stale empty position. *)
let rec close_hole t hole j =
  let s = t.index.(j) in
  if s < 0 then t.index.(hole) <- -1
  else if (j - home t t.pages.(s)) land t.mask >= (j - hole) land t.mask then begin
    t.index.(hole) <- s;
    close_hole t j ((j + 1) land t.mask)
  end
  else close_hole t hole ((j + 1) land t.mask)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

let lookup t ~page =
  let s = t.index.(find t page) in
  if s < 0 then begin
    Obs.Counter.incr c_misses;
    false
  end
  else begin
    Obs.Counter.incr c_hits;
    if t.head <> s then begin
      unlink t s;
      push_front t s
    end;
    t.hit_ready <- t.ready.(s);
    t.hit_first_use <- t.unused_prefetch.(s);
    t.unused_prefetch.(s) <- false;
    true
  end

let hit_ready_time t = t.hit_ready
let hit_first_use t = t.hit_first_use

(* Evicts the LRU page and returns its slot. *)
let evict t =
  let s = t.tail in
  Obs.Counter.incr c_evictions;
  if t.unused_prefetch.(s) then t.evicted_unused <- t.evicted_unused + 1;
  let i = find t t.pages.(s) in
  close_hole t i ((i + 1) land t.mask);
  unlink t s;
  s

let insert t ~page ~origin ~ready_time =
  if t.index.(find t page) < 0 then begin
    let s =
      if t.resident < t.capacity then begin
        t.resident <- t.resident + 1;
        t.resident - 1
      end
      else evict t
    in
    t.pages.(s) <- page;
    t.ready.(s) <- ready_time;
    t.unused_prefetch.(s) <- (match origin with Prefetch -> true | Demand -> false);
    push_front t s;
    (* Probed again: the eviction may have moved entries. *)
    t.index.(find t page) <- s
  end

let contains t ~page = t.index.(find t page) >= 0
let evicted_unused_prefetches t = t.evicted_unused
