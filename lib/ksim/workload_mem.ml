type access = Mem_sim.access

let mk pid page = { Mem_sim.pid; page }

let sequential ~pid ~start ~n = List.init n (fun i -> mk pid (start + i))
let strided ~pid ~start ~stride ~n = List.init n (fun i -> mk pid (start + (i * stride)))

let random ~rng ~pid ~pages ~n =
  if pages <= 0 then invalid_arg "Workload_mem.random: pages must be positive";
  List.init n (fun _ -> mk pid (Kml.Rng.int rng pages))

(* ------------------------------------------------------------------ *)
(* Video resize                                                         *)
(* ------------------------------------------------------------------ *)

type video_params = {
  frames : int;
  frame_pages : int;
  group : int;
  guard_pages : int;
  noise_pct : int;
}

let default_video =
  { frames = 400; frame_pages = 6; group = 3; guard_pages = 26; noise_pct = 6 }

(* Planar frame layout (Y/U/V): within a frame the three planes are read
   interleaved in groups — a short sequential burst per plane, a hop to the
   next plane (constant delta within a frame), then an output write into a
   small circular buffer (usually cache-resident).  Each plane-frame region
   is followed by a never-accessed guard zone, so prefetching past the end
   of a frame is genuinely wasted — the waste mechanism that separates the
   prefetchers.  Optional noise models background activity (cloud sync, UI)
   touching random heap pages. *)
let video_resize ?(params = default_video) ?(rng = Kml.Rng.create 7) ~pid () =
  if params.frames < 1 || params.frame_pages < params.group || params.group < 1 then
    invalid_arg "Workload_mem.video_resize: invalid parameters";
  let planes = 3 in
  let region = params.frame_pages + params.guard_pages in
  let out_base = planes * region * (params.frames + 2) in
  let out_buf = 32 in
  let noise_base = 2 * out_base in
  let noise_pages = 4096 in
  let acc = ref [] in
  let push page = acc := mk pid page :: !acc in
  let out_pos = ref 0 in
  for f = 0 to params.frames - 1 do
    (* Content-dependent row batching: the number of pages consumed per
       group varies around [group] (motion/complexity differs across the
       frame), so the interleave period is irregular. *)
    let consumed = ref 0 in
    while !consumed < params.frame_pages do
      let glen =
        let jitter = Kml.Rng.int rng 3 - 1 in
        Stdlib.max 1 (Stdlib.min (params.frame_pages - !consumed) (params.group + jitter))
      in
      for plane = 0 to planes - 1 do
        let plane_base = ((f * planes) + plane) * region in
        for i = 0 to glen - 1 do
          push (plane_base + !consumed + i)
        done
      done;
      consumed := !consumed + glen;
      push (out_base + (!out_pos mod out_buf));
      incr out_pos;
      if params.noise_pct > 0 && Kml.Rng.int rng 100 < params.noise_pct then
        push (noise_base + Kml.Rng.int rng noise_pages)
    done
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Matrix convolution                                                   *)
(* ------------------------------------------------------------------ *)

(* im2col-style column sweeps over a row-major matrix: each of 1200 column
   walks reads 8 rows at a stride of 64 pages (a matrix row); the first 2
   rows gather two adjacent pages (a short false-sequential burst that
   baits sequential readahead), the remainder single pages.  Columns
   advance by 67 pages (coprime to the stride) so pages stay cold.  Each
   column ends with 3 writes into a circular output buffer, and every 100
   columns a fresh 8-page sequential checkpoint run is flushed — the only
   truly sequential I/O in the workload. *)
let matrix_rows = 8
let row_stride = 64
let n_columns = 1200
let col_advance = 67
let pair_rows = 2
let out_run = 3
let checkpoint_every = 100
let checkpoint_run = 8

let matrix_conv ~pid () =
  let out_base = 1 lsl 28 in
  let out_buf = 32 in
  let ckpt_base = 1 lsl 29 in
  let ckpt_pos = ref 0 in
  let acc = ref [] in
  let push page = acc := mk pid page :: !acc in
  for c = 0 to n_columns - 1 do
    let base = c * col_advance in
    for r = 0 to matrix_rows - 1 do
      push (base + (r * row_stride));
      if r < pair_rows then push (base + (r * row_stride) + 1)
    done;
    for k = 0 to out_run - 1 do
      push (out_base + (((c * out_run) + k) mod out_buf))
    done;
    if (c + 1) mod checkpoint_every = 0 then
      for _ = 1 to checkpoint_run do
        push (ckpt_base + !ckpt_pos);
        incr ckpt_pos
      done
  done;
  List.rev !acc

let footprint trace =
  let seen = Hashtbl.create 4096 in
  List.iter (fun { Mem_sim.page; _ } -> Hashtbl.replace seen page ()) trace;
  Hashtbl.length seen

let length = List.length

(* ------------------------------------------------------------------ *)
(* Multi-file streams                                                   *)
(* ------------------------------------------------------------------ *)

type file_kind = Sequential_file | Strided_file of int | Reversed_file

(* Six files of 1500 pages, read in bursts of 1 to 4 accesses; the kinds
   are cycled over the files. *)
let n_files = 6
let pages_per_file = 1500
let file_burst = 4
let kinds = [| Sequential_file; Strided_file 7; Reversed_file |]

let file_streams ~rng () =
  let file_gap = 1 lsl 22 in
  (* Per-file cursor: how many of its accesses have been emitted. *)
  let emitted = Array.make n_files 0 in
  let page_of file i =
    let base = (file + 1) * file_gap in
    match kinds.(file mod Array.length kinds) with
    | Sequential_file -> base + i
    | Strided_file stride -> base + (i * stride)
    | Reversed_file -> base + pages_per_file - 1 - i
  in
  let acc = ref [] in
  let remaining = ref (n_files * pages_per_file) in
  while !remaining > 0 do
    (* pick a file that still has pages, weighted uniformly *)
    let live =
      Array.to_list
        (Array.mapi (fun f n -> (f, n)) emitted)
      |> List.filter (fun (_, n) -> n < pages_per_file)
      |> List.map fst
    in
    let file = List.nth live (Kml.Rng.int rng (List.length live)) in
    let burst =
      Stdlib.min (1 + Kml.Rng.int rng file_burst) (pages_per_file - emitted.(file))
    in
    for k = 0 to burst - 1 do
      acc := mk (file + 1) (page_of file (emitted.(file) + k)) :: !acc
    done;
    emitted.(file) <- emitted.(file) + burst;
    remaining := !remaining - burst
  done;
  List.rev !acc

let retag trace ~pid = List.map (fun a -> { a with Mem_sim.pid }) trace

let producer_consumer ~rng ~producer ~consumer () =
  let n = 4000 and lag = 4 and delta = 1 lsl 20 and pages = 200_000 in
  let walk = Array.init n (fun _ -> Kml.Rng.int rng pages) in
  let acc = ref [] in
  for i = 0 to n - 1 do
    acc := mk producer walk.(i) :: !acc;
    if i >= lag then acc := mk consumer (walk.(i - lag) + delta) :: !acc
  done;
  List.rev !acc

(* Multi-tenant serving trace: [tenants] independent streams, each with
   its own access pattern (cycled by tenant id), interleaved in
   rng-ordered bursts.  Per-tenant order is the stream's own order —
   exactly what the serving layer's FIFO pinning preserves — while the
   global interleave is adversarial for any consumer that assumes
   contiguous per-tenant runs. *)
let multi_tenant ~rng ~tenants ~events_per_tenant ?(burst = 8) () =
  let pages = 4096 in
  if tenants < 1 || events_per_tenant < 1 then
    invalid_arg "Workload_mem.multi_tenant: invalid parameters";
  let stream tenant =
    let pid = tenant in
    match tenant mod 4 with
    | 0 -> sequential ~pid ~start:(tenant * 64) ~n:events_per_tenant
    | 1 -> strided ~pid ~start:(tenant * 64) ~stride:(2 + (tenant mod 7)) ~n:events_per_tenant
    | 2 -> random ~rng ~pid ~pages ~n:events_per_tenant
    | _ ->
      (* Periodic scan with a jump every 16 pages: sequential enough to
         train on, irregular enough to miss without the learned path. *)
      List.init events_per_tenant (fun i ->
          let seg = i / 16 and off = i mod 16 in
          mk pid ((tenant * 131) + (seg * 64) + off))
  in
  let queues = Array.init tenants (fun tenant -> ref (stream tenant)) in
  let remaining = ref (tenants * events_per_tenant) in
  let acc = ref [] in
  while !remaining > 0 do
    let t = Kml.Rng.int rng tenants in
    let q = queues.(t) in
    let n = 1 + Kml.Rng.int rng burst in
    let rec take n =
      if n > 0 then
        match !q with
        | [] -> ()
        | a :: rest ->
          q := rest;
          acc := a :: !acc;
          decr remaining;
          take (n - 1)
    in
    take n
  done;
  List.rev !acc
