type pattern =
  | Any
  | Eq of int
  | Mask of { value : int; mask : int }
  | Between of int * int

type action =
  | Run of Vm.t
  | Const of int
  | Host of (Ctxt.t -> int)

type entry_id = int

type entry = {
  id : entry_id;
  priority : int;
  seq : int; (* insertion order; earlier wins among equal priorities *)
  patterns : pattern array;
  action : action;
  mutable hits : int;
}

type t = {
  name : string;
  match_keys : int array;
  default : action;
  mutable entries : entry list; (* kept sorted: priority desc, seq asc *)
  fields : int array; (* per-lookup scratch; one slot per match key *)
  mutable entry_scratch : entry array; (* per-slot resolved entries for lookup_batch *)
  mutable next_id : int;
  mutable next_seq : int;
  mutable total_hits : int;
  mutable default_hits : int;
}

(* Process-wide insert total across every table (DESIGN.md section 11);
   lookups and default hits are the per-table / per-entry accessors. *)
let c_inserts = Obs.Counter.make "rmt.table.inserts"

let create ~name ~match_keys ~default =
  { name;
    match_keys = Array.copy match_keys;
    default;
    entries = [];
    fields = Array.make (Array.length match_keys) 0;
    entry_scratch = [||];
    next_id = 0;
    next_seq = 0;
    total_hits = 0;
    default_hits = 0 }

let name t = t.name
let match_keys t = Array.copy t.match_keys

let entry_order a b =
  match compare b.priority a.priority with 0 -> compare a.seq b.seq | c -> c

let pattern_matches p v =
  match p with
  | Any -> true
  | Eq x -> v = x
  | Mask { value; mask } -> v land mask = value land mask
  | Between (lo, hi) -> v >= lo && v <= hi

(* top level (not a local closure) so matching allocates nothing *)
let rec match_from patterns (fields : int array) i n =
  i >= n
  || (pattern_matches (Array.unsafe_get patterns i) (Array.unsafe_get fields i)
      && match_from patterns fields (i + 1) n)

let entry_matches fields e = match_from e.patterns fields 0 (Array.length fields)

(* Sentinel for "no match" on the hot path: avoids option boxing per
   lookup.  Compared physically. *)
let no_entry =
  { id = -1; priority = min_int; seq = max_int; patterns = [||]; action = Const 0; hits = 0 }

let rec first_match fields = function
  | [] -> no_entry
  | e :: rest -> if entry_matches fields e then e else first_match fields rest

let insert t ?(priority = 0) ~patterns action =
  if Array.length patterns <> Array.length t.match_keys then
    invalid_arg "Table.insert: pattern arity must match the table's match keys";
  let entry =
    { id = t.next_id;
      priority;
      seq = t.next_seq;
      patterns = Array.copy patterns;
      action;
      hits = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.next_seq <- t.next_seq + 1;
  t.entries <- List.sort entry_order (entry :: t.entries);
  Obs.Counter.incr c_inserts;
  entry.id

let entry_count t = List.length t.entries

let read_fields t ~ctxt =
  let fields = t.fields in
  for i = 0 to Array.length t.match_keys - 1 do
    fields.(i) <- Ctxt.get ctxt t.match_keys.(i)
  done;
  fields

(* Best matching entry ([no_entry] if none): [entries] is sorted, so the
   first match wins. *)
let find_entry t fields = first_match fields t.entries

(* ------------------------------------------------------------------ *)
(* Lookup (DESIGN.md section 13)                                       *)
(* ------------------------------------------------------------------ *)

let entry_scratch t n =
  if Array.length t.entry_scratch < n then
    t.entry_scratch <-
      Array.make (Stdlib.max 8 (Stdlib.max n (2 * Array.length t.entry_scratch))) no_entry;
  t.entry_scratch

(* Top level (not closures) so the uniform-action probe allocates nothing. *)
let slot_action t (entries : entry array) s =
  let e = entries.(s) in
  if e == no_entry then t.default else e.action

let rec uniform_run_from t entries (b : Batch.t) vm s n =
  s >= n
  || b.Batch.traps.(s) == None
     &&
     match slot_action t entries s with
     | Run vm' -> vm' == vm && uniform_run_from t entries b vm (s + 1) n
     | Const _ | Host _ -> false

let set_result (b : Batch.t) s v =
  b.Batch.results.(s) <- v;
  b.Batch.steps.(s) <- 0;
  b.Batch.denied.(s) <- 0

(* Match resolution stays per slot (field reads plus a scan of a short
   priority-ordered entry list), and when every slot resolves to the same
   [Run] action — the common case for learned tables, where one installed
   program serves a wildcard entry or the default — the whole batch is
   dispatched through one {!Vm.invoke_batch}, so the program's model
   inference and instruction dispatch amortize across the events.  Mixed
   batches run each slot's action on its own, through {!Vm.invoke_slot}
   for [Run]; [Host] actions are foreign code and their exceptions
   propagate.  A slot that already trapped in an earlier table of the same
   hook is skipped: it is neither matched nor counted nor run, and keeps
   its trap marker. *)
let lookup_batch t (b : Batch.t) ~now =
  let n = b.Batch.n in
  if n > 0 then begin
    let entries = entry_scratch t n in
    let faults = Fault.active () in
    for s = 0 to n - 1 do
      if b.Batch.traps.(s) == None then begin
        t.total_hits <- t.total_hits + 1;
        (* Fault seam: a forced miss sends the slot to the default action
           (table-miss storm, DESIGN.md section 12). *)
        let e =
          if faults && Fault.fire Fault.Table_miss then no_entry
          else find_entry t (read_fields t ~ctxt:b.Batch.ctxts.(s))
        in
        entries.(s) <- e;
        if e == no_entry then t.default_hits <- t.default_hits + 1
        else e.hits <- e.hits + 1
      end
    done;
    match slot_action t entries 0 with
    | Run vm when uniform_run_from t entries b vm 0 n -> Vm.invoke_batch vm b ~now
    | Run _ | Const _ | Host _ ->
      for s = 0 to n - 1 do
        if b.Batch.traps.(s) == None then
          match slot_action t entries s with
          | Const v -> set_result b s v
          | Host f -> set_result b s (f b.Batch.ctxts.(s))
          | Run vm -> Vm.invoke_slot vm b s ~now
      done
  end

let lookup_entry t ~ctxt =
  let e = find_entry t (read_fields t ~ctxt) in
  if e == no_entry then None else Some e.id

let hits t = t.total_hits
let default_hits t = t.default_hits

let entry_hits t id =
  match List.find_opt (fun e -> e.id = id) t.entries with Some e -> e.hits | None -> 0

let clear t =
  t.entries <- [];
  t.total_hits <- 0;
  t.default_hits <- 0

let pp_pattern fmt = function
  | Any -> Format.fprintf fmt "*"
  | Eq v -> Format.fprintf fmt "=%d" v
  | Mask { value; mask } -> Format.fprintf fmt "&%x=%x" mask value
  | Between (lo, hi) -> Format.fprintf fmt "[%d..%d]" lo hi

let pp fmt t =
  Format.fprintf fmt "table %s (keys=[%s], %d entries, %d hits, %d default)@." t.name
    (String.concat ";" (Array.to_list (Array.map string_of_int t.match_keys)))
    (entry_count t) t.total_hits t.default_hits;
  List.iter
    (fun e ->
      Format.fprintf fmt "  #%d prio=%d hits=%d [%s]@." e.id e.priority e.hits
        (String.concat "; "
           (Array.to_list (Array.map (Format.asprintf "%a" pp_pattern) e.patterns))))
    t.entries
