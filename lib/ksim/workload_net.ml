type scenario = {
  name : string;
  link : Link.config;
  flows : Flow.spec array;
}

let ms = Sim_clock.ms

(* Long-lived elephants sharing a deep queue: steady-state throughput and
   fairness are what matter here. *)
let stream () =
  let flows = 6 and size_pkts = 1200 in
  { name = "stream";
    link = { Link.queue_capacity = 128; ecn_threshold = 0 };
    flows =
      Array.init flows (fun i ->
          { Flow.id = i;
            start_ns = i * ms 1;
            size_pkts;
            base_rtt_ns = ms 10 }) }

(* A few elephants bloating a deep buffer while short mice arrive
   throughout: the p99 flow-completion time of the mice exposes
   bufferbloat, which loss-based control causes and delay-aware control
   avoids. *)
let mixed ~rng =
  let elephants = 3 and mice = 24 in
  let elephant i =
    { Flow.id = i; start_ns = i * ms 2; size_pkts = 1400; base_rtt_ns = ms 10 }
  in
  let mouse j =
    { Flow.id = elephants + j;
      start_ns = ms 40 + (j * ms 9) + Sim_clock.us (Kml.Rng.int rng 4000);
      size_pkts = 16 + Kml.Rng.int rng 48;
      base_rtt_ns = ms 8 + Sim_clock.us (Kml.Rng.int rng 8000) }
  in
  { name = "mixed";
    link = { Link.queue_capacity = 256; ecn_threshold = 0 };
    flows = Array.append (Array.init elephants elephant) (Array.init mice mouse) }

(* Synchronized short flows into a shallow ECN-marking queue: the incast
   pattern of partition/aggregate datacenter workloads. *)
let incast ~rng =
  let flows = 24 and size_pkts = 48 in
  { name = "incast";
    link = { Link.queue_capacity = 32; ecn_threshold = 8 };
    flows =
      Array.init flows (fun i ->
          { Flow.id = i;
            start_ns = Sim_clock.us (Kml.Rng.int rng 500);
            size_pkts = size_pkts + Kml.Rng.int rng 16;
            base_rtt_ns = ms 2 }) }

let names = [ "stream"; "mixed"; "incast" ]

let by_name ~rng = function
  | "stream" -> stream ()
  | "mixed" -> mixed ~rng
  | "incast" -> incast ~rng
  | other -> invalid_arg ("Workload_net.by_name: unknown mix " ^ other)
