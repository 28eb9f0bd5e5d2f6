type access = { pid : int; page : int }

type config = {
  cache_pages : int;
  cpu_ns_per_access : int;
  swap_service_ns : int;
  max_prefetch_per_access : int;
}

type result = {
  prefetcher : string;
  accesses : int;
  faults : int;
  partial_stalls : int;
  prefetches_issued : int;
  prefetches_used : int;
  accuracy : float;
  coverage : float;
  completion_ns : int;
  stall_ns : int;
  device_reads : int;
}

(* Per-run simulation state. *)
type state = {
  cache : Page_cache.t;
  device : Swap_device.t;
  mutable now : int;
  mutable n : int;
  mutable faults : int;
  mutable partial : int;
  mutable issued : int;
  mutable used : int;
  mutable stall_ns : int;
}

(* Issues the wanted pages among the first [budget] that are valid and not
   resident, asynchronously. *)
let rec issue st budget = function
  | p :: rest when budget > 0 ->
    if p >= 0 && not (Page_cache.contains st.cache ~page:p) then begin
      let ready = Swap_device.read st.device ~now:st.now in
      Page_cache.insert st.cache ~page:p ~origin:Page_cache.Prefetch ~ready_time:ready;
      st.issued <- st.issued + 1
    end;
    issue st (budget - 1) rest
  | _ -> ()

let access config prefetcher st { pid; page } =
  st.n <- st.n + 1;
  st.now <- st.now + config.cpu_ns_per_access;
  let hit = Page_cache.lookup st.cache ~page in
  if hit then begin
    if Page_cache.hit_first_use st.cache then st.used <- st.used + 1;
    let ready_time = Page_cache.hit_ready_time st.cache in
    if ready_time > st.now then begin
      (* Prefetch in flight: stall only for the remainder. *)
      st.partial <- st.partial + 1;
      st.stall_ns <- st.stall_ns + (ready_time - st.now);
      st.now <- ready_time
    end
  end
  else begin
    st.faults <- st.faults + 1;
    let done_at = Swap_device.read st.device ~now:st.now in
    st.stall_ns <- st.stall_ns + (done_at - st.now);
    st.now <- done_at;
    Page_cache.insert st.cache ~page ~origin:Page_cache.Demand ~ready_time:done_at
  end;
  issue st config.max_prefetch_per_access
    (prefetcher.Prefetcher.on_access ~pid ~page ~hit ~now:st.now)

let run ~config ?(reset = true) ~prefetcher trace =
  if reset then prefetcher.Prefetcher.reset ();
  let st =
    { cache = Page_cache.create ~capacity:config.cache_pages;
      device = Swap_device.create ~service_time_ns:config.swap_service_ns ();
      now = 0;
      n = 0;
      faults = 0;
      partial = 0;
      issued = 0;
      used = 0;
      stall_ns = 0 }
  in
  List.iter (access config prefetcher st) trace;
  let accuracy = if st.issued = 0 then 0.0 else float_of_int st.used /. float_of_int st.issued in
  let coverage =
    if st.used + st.faults = 0 then 0.0
    else float_of_int st.used /. float_of_int (st.used + st.faults)
  in
  { prefetcher = prefetcher.Prefetcher.name;
    accesses = st.n;
    faults = st.faults;
    partial_stalls = st.partial;
    prefetches_issued = st.issued;
    prefetches_used = st.used;
    accuracy;
    coverage;
    completion_ns = st.now;
    stall_ns = st.stall_ns;
    device_reads = Swap_device.reads_issued st.device }
