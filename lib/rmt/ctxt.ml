(* Flat open-addressed int->int store.

   Hot-path layout: keys below [dense_size] live in a plain value array with
   a byte-per-key presence map, so [get]/[set] on the dense range are a
   bounds check and an array access — no hashing, no option boxing.  Keys at
   or above [dense_size] go to an open-addressed (linear probing) table;
   bindings are never removed, so a probe ends at the key or at an empty
   slot.  Absent dense slots hold 0, so [get] never needs the presence
   map. *)

let dense_size = 128

(* Empty sparse slot.  Real sparse keys are >= dense_size, so a negative
   sentinel is free. *)
let slot_empty = -1

type t = {
  dense : int array;
  dense_present : Bytes.t;
  mutable keys : int array; (* power-of-two sized *)
  mutable vals : int array;
  mutable live : int; (* sparse bindings *)
  mutable reads : int;
}

let min_sparse = 16

let create () =
  { dense = Array.make dense_size 0;
    dense_present = Bytes.make dense_size '\000';
    keys = Array.make min_sparse slot_empty;
    vals = Array.make min_sparse 0;
    live = 0;
    reads = 0 }

(* Fibonacci hashing; keys are arbitrary non-negative ints. *)
let hash key = (key * 0x9E3779B1) land max_int

(* Slot holding [key], or the empty slot that ends its probe path.  The
   table keeps load factor under 3/4, so an empty slot always terminates
   the probe. *)
let find_slot keys key =
  let mask = Array.length keys - 1 in
  let rec probe i =
    let k = keys.(i) in
    if k = key || k = slot_empty then i else probe ((i + 1) land mask)
  in
  probe (hash key land mask)

let resize t cap =
  let old_keys = t.keys and old_vals = t.vals in
  t.keys <- Array.make cap slot_empty;
  t.vals <- Array.make cap 0;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let slot = find_slot t.keys k in
        t.keys.(slot) <- k;
        t.vals.(slot) <- old_vals.(i)
      end)
    old_keys

(* Negative and sparse keys, out of line: [get]/[set] then reach them
   only by a tail call, so their dense fast path is a frameless leaf. *)
let set_sparse t key value =
  if key < 0 then invalid_arg "Ctxt.set: negative key";
  if 4 * (t.live + 1) > 3 * Array.length t.keys then
    resize t (2 * Array.length t.keys);
  let slot = find_slot t.keys key in
  if t.keys.(slot) <> key then begin
    t.keys.(slot) <- key;
    t.live <- t.live + 1
  end;
  t.vals.(slot) <- value

let set t key value =
  if key >= 0 && key < dense_size then begin
    Array.unsafe_set t.dense key value;
    Bytes.unsafe_set t.dense_present key '\001'
  end
  else set_sparse t key value

let get_sparse t key =
  if key < 0 then 0
  else
    let slot = find_slot t.keys key in
    if Array.unsafe_get t.keys slot = key then Array.unsafe_get t.vals slot else 0

let get t key =
  t.reads <- t.reads + 1;
  if key >= 0 && key < dense_size then Array.unsafe_get t.dense key
  else get_sparse t key

let dense_bound = dense_size

let reads t = t.reads

(* Folds this context's read counter into registry snapshots (DESIGN.md
   section 11) through the public accessor — the hot [get] path is left
   untouched.  Re-watching a name rebinds the view to the new context. *)
let watch ~name t =
  Obs.Registry.register_view ("rmt.ctxt." ^ name ^ ".reads") (fun () -> reads t)

(* Independent deep copy; used by the canary shadow path so a candidate
   program's writes cannot leak into the live execution context. *)
let copy t =
  { dense = Array.copy t.dense;
    dense_present = Bytes.copy t.dense_present;
    keys = Array.copy t.keys;
    vals = Array.copy t.vals;
    live = t.live;
    reads = t.reads }

let of_list bindings =
  let t = create () in
  List.iter (fun (k, v) -> set t k v) bindings;
  t

let fold f t init =
  let acc = ref init in
  for key = 0 to dense_size - 1 do
    if Bytes.unsafe_get t.dense_present key <> '\000' then acc := f key t.dense.(key) !acc
  done;
  Array.iteri (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc) t.keys;
  !acc

let pp fmt t =
  let bindings = fold (fun k v acc -> (k, v) :: acc) t [] in
  let sorted = List.sort compare bindings in
  Format.fprintf fmt "{%s}"
    (String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) sorted))
