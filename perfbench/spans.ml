(* In-memory span recorder for traced runs.

   A span is (name, start, stop, parent, run): [name] is a small integer
   the caller assigns per layer boundary, [parent] the index of the span
   that was open around it (-1 for a root), [run] the repetition it
   belongs to.  Storage is preallocated columns, so recording allocates
   nothing; spans past the capacity are counted as dropped, and the
   per-layer self times computed from an incomplete buffer are reported
   as such by the caller. *)

type t = {
  names : int array;
  starts : int array;
  stops : int array;
  parents : int array;
  runs : int array;
  mutable len : int;
  mutable dropped : int;
}

let create capacity =
  { names = Array.make capacity 0;
    starts = Array.make capacity 0;
    stops = Array.make capacity 0;
    parents = Array.make capacity (-1);
    runs = Array.make capacity 0;
    len = 0;
    dropped = 0 }

let length t = t.len
let dropped t = t.dropped

(* Returns the span's index, or -1 when the buffer is full. *)
let enter t ~name ~parent ~run start =
  let id = t.len in
  if id >= Array.length t.names then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    t.names.(id) <- name;
    t.starts.(id) <- start;
    t.stops.(id) <- start;
    t.parents.(id) <- parent;
    t.runs.(id) <- run;
    t.len <- id + 1;
    id
  end

let leave t id stop = if id >= 0 then t.stops.(id) <- stop

(* Renames an open or closed span: a call whose kind is only known after
   it returns (an access that triggered a retrain) is recorded first and
   classified afterwards. *)
let rename t id name = if id >= 0 then t.names.(id) <- name

type totals = {
  self_ns : int array;  (** per name: duration minus direct children *)
  total_ns : int array;  (** per name: summed duration *)
  count : int array;  (** per name: spans recorded *)
}

(* Self time of a span is its duration minus the durations of its direct
   children; summed per name, the self times of every span add up to the
   summed duration of the root spans.  [keep run] selects repetitions. *)
let totals ?(keep = fun _ -> true) t ~names =
  let self_ns = Array.make names 0
  and total_ns = Array.make names 0
  and count = Array.make names 0 in
  for i = 0 to t.len - 1 do
    if keep t.runs.(i) then begin
      let d = t.stops.(i) - t.starts.(i) in
      let nm = t.names.(i) in
      self_ns.(nm) <- self_ns.(nm) + d;
      total_ns.(nm) <- total_ns.(nm) + d;
      count.(nm) <- count.(nm) + 1;
      let p = t.parents.(i) in
      if p >= 0 then self_ns.(t.names.(p)) <- self_ns.(t.names.(p)) - d
    end
  done;
  { self_ns; total_ns; count }

(* Root-span time: the traced wall time the self times add up to. *)
let root_ns ?(keep = fun _ -> true) t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    if keep t.runs.(i) && t.parents.(i) < 0 then acc := !acc + (t.stops.(i) - t.starts.(i))
  done;
  !acc
