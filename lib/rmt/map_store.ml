type kind = Array_map | Hash_map | Lru_hash_map | Ring_buffer
type spec = { kind : kind; capacity : int }

(* LRU bookkeeping: an intrusive doubly-linked list over live nodes, most
   recently used at the head.  All operations are O(1). *)
type lru_node = {
  key : int;
  mutable value : int;
  mutable prev : lru_node option;
  mutable next : lru_node option;
}

type lru_state = {
  nodes : (int, lru_node) Hashtbl.t;
  mutable head : lru_node option;
  mutable tail : lru_node option;
}

type repr =
  | Arr of int array
  | Hash of (int, int) Hashtbl.t
  | Lru of lru_state
  | Ring of { buf : int array; mutable start : int; mutable len : int }

type t = { spec : spec; repr : repr }

let create spec =
  if spec.capacity <= 0 then invalid_arg "Map_store.create: capacity must be positive";
  let repr =
    match spec.kind with
    | Array_map -> Arr (Array.make spec.capacity 0)
    | Hash_map -> Hash (Hashtbl.create (Stdlib.min spec.capacity 1024))
    | Lru_hash_map ->
      Lru { nodes = Hashtbl.create (Stdlib.min spec.capacity 1024); head = None; tail = None }
    | Ring_buffer -> Ring { buf = Array.make spec.capacity 0; start = 0; len = 0 }
  in
  { spec; repr }

let spec t = t.spec

let lru_unlink s node =
  (match node.prev with Some p -> p.next <- node.next | None -> s.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> s.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let lru_push_front s node =
  node.next <- s.head;
  node.prev <- None;
  (match s.head with Some h -> h.prev <- Some node | None -> s.tail <- Some node);
  s.head <- Some node

let lru_touch s node =
  lru_unlink s node;
  lru_push_front s node

let lookup t key =
  match t.repr with
  | Arr a -> if key >= 0 && key < Array.length a then a.(key) else 0
  (* exception-style find: no [Some] boxing on the datapath hot path *)
  | Hash h -> (match Hashtbl.find h key with v -> v | exception Not_found -> 0)
  | Lru s ->
    (match Hashtbl.find s.nodes key with
     | node ->
       lru_touch s node;
       node.value
     | exception Not_found -> 0)
  | Ring _ -> 0

let update t ~key ~value =
  match t.repr with
  | Arr a -> if key >= 0 && key < Array.length a then a.(key) <- value
  | Hash h ->
    if Hashtbl.mem h key || Hashtbl.length h < t.spec.capacity then Hashtbl.replace h key value
  | Lru s ->
    (match Hashtbl.find_opt s.nodes key with
     | Some node ->
       node.value <- value;
       lru_touch s node
     | None ->
       if Hashtbl.length s.nodes >= t.spec.capacity then begin
         match s.tail with
         | Some victim ->
           lru_unlink s victim;
           Hashtbl.remove s.nodes victim.key
         | None -> ()
       end;
       let node = { key; value; prev = None; next = None } in
       Hashtbl.replace s.nodes key node;
       lru_push_front s node)
  | Ring _ -> invalid_arg "Map_store.update: ring buffers use push"

let delete t key =
  match t.repr with
  | Arr a -> if key >= 0 && key < Array.length a then a.(key) <- 0
  | Hash h -> Hashtbl.remove h key
  | Lru s ->
    (match Hashtbl.find_opt s.nodes key with
     | Some node ->
       lru_unlink s node;
       Hashtbl.remove s.nodes key
     | None -> ())
  | Ring _ -> invalid_arg "Map_store.delete: ring buffers use push"

let push t value =
  match t.repr with
  | Ring r ->
    if r.len < Array.length r.buf then begin
      r.buf.((r.start + r.len) mod Array.length r.buf) <- value;
      r.len <- r.len + 1
    end
    else begin
      r.buf.(r.start) <- value;
      r.start <- (r.start + 1) mod Array.length r.buf
    end
  | Arr _ | Hash _ | Lru _ -> invalid_arg "Map_store.push: not a ring buffer"

let ring_contents t =
  match t.repr with
  | Ring r -> Array.init r.len (fun i -> r.buf.((r.start + i) mod Array.length r.buf))
  | Arr _ | Hash _ | Lru _ -> invalid_arg "Map_store.ring_contents: not a ring buffer"

let size t =
  match t.repr with
  | Arr a -> Array.length a
  | Hash h -> Hashtbl.length h
  | Lru s -> Hashtbl.length s.nodes
  | Ring r -> r.len

let fold f t init =
  match t.repr with
  | Arr a ->
    let acc = ref init in
    Array.iteri (fun i v -> acc := f i v !acc) a;
    !acc
  | Hash h -> Hashtbl.fold f h init
  | Lru s -> Hashtbl.fold (fun k node acc -> f k node.value acc) s.nodes init
  | Ring _ ->
    let contents = ring_contents t in
    let acc = ref init in
    Array.iteri (fun i v -> acc := f i v !acc) contents;
    !acc
