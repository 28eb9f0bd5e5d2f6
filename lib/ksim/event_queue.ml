type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; len = 0; next_seq = 0 }
let is_empty t = t.len = 0

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~time payload =
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.len >= Array.length t.heap then begin
    let cap = Stdlib.max 16 (2 * Array.length t.heap) in
    let bigger = Array.make cap entry in
    Array.blit t.heap 0 bigger 0 t.len;
    t.heap <- bigger
  end;
  t.heap.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.heap.(0) <- t.heap.(t.len);
      sift_down t 0
    end;
    Some (top.time, top.payload)
  end

let peek_time t = if t.len = 0 then None else Some t.heap.(0).time
