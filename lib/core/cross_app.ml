(* Producer pages remembered per process, the majority-vote support
   required to couple, and consumer observations per vote round. *)
let history = 32
let min_support = 24
let vote_window = 32

type coupling = { producer : int; consumer : int; delta : int }

(* Per producer-candidate stream: its recent pages (an RMT ring map — the
   same monitoring structure the in-kernel datapath would use). *)
type stream = { ring : Rmt.Map_store.t }

(* Per (consumer, producer) pair: a windowed vote over observed deltas. *)
type vote = {
  counts : (int, int) Hashtbl.t;
  mutable observed : int;
}

type t = {
  streams : (int, stream) Hashtbl.t;
  votes : (int * int, vote) Hashtbl.t;
  mutable couplings : coupling list;
  mutable observations : int;
  mutable cross_prefetches : int;
}

let create () =
  { streams = Hashtbl.create 8;
    votes = Hashtbl.create 16;
    couplings = [];
    observations = 0;
    cross_prefetches = 0 }

let stream_of t pid =
  match Hashtbl.find_opt t.streams pid with
  | Some s -> s
  | None ->
    let s =
      { ring =
          Rmt.Map_store.create
            { Rmt.Map_store.kind = Rmt.Map_store.Ring_buffer; capacity = history } }
    in
    Hashtbl.replace t.streams pid s;
    s

let vote_of t key =
  match Hashtbl.find_opt t.votes key with
  | Some v -> v
  | None ->
    let v = { counts = Hashtbl.create 64; observed = 0 } in
    Hashtbl.replace t.votes key v;
    v

(* One consumer access contributes one observation against every other
   stream: every delta q - p' (p' in the producer's recent ring) gets a
   vote; the true mapping delta recurs every round, noise deltas do not. *)
let observe_consumer t ~consumer ~page =
  Hashtbl.iter
    (fun producer stream ->
      if producer <> consumer then begin
        let v = vote_of t (consumer, producer) in
        let seen_this_round = Hashtbl.create 8 in
        Array.iter
          (fun p' ->
            let delta = page - p' in
            if not (Hashtbl.mem seen_this_round delta) then begin
              Hashtbl.replace seen_this_round delta ();
              let c = Option.value ~default:0 (Hashtbl.find_opt v.counts delta) in
              Hashtbl.replace v.counts delta (c + 1)
            end)
          (Rmt.Map_store.ring_contents stream.ring);
        v.observed <- v.observed + 1;
        if v.observed >= vote_window then begin
          (* Round ends: promote/demote the coupling for this pair. *)
          let best =
            Hashtbl.fold
              (fun delta count acc ->
                match acc with
                | Some (_, c) when c >= count -> acc
                | _ -> Some (delta, count))
              v.counts None
          in
          let keep_others =
            List.filter
              (fun c -> not (c.producer = producer && c.consumer = consumer))
              t.couplings
          in
          (match best with
           | Some (delta, count) when count >= min_support ->
             t.couplings <- { producer; consumer; delta } :: keep_others
           | Some _ | None -> t.couplings <- keep_others);
          Hashtbl.reset v.counts;
          v.observed <- 0
        end
      end)
    t.streams

let on_access t ~pid ~page ~hit:_ ~now:_ =
  t.observations <- t.observations + 1;
  let stream = stream_of t pid in
  observe_consumer t ~consumer:pid ~page;
  (* This access also acts as the producer side of any coupling: prefetch
     the coupled consumer's mapping of this page. *)
  let prefetches =
    List.filter_map
      (fun c -> if c.producer = pid then Some (page + c.delta) else None)
      t.couplings
  in
  t.cross_prefetches <- t.cross_prefetches + List.length prefetches;
  Rmt.Map_store.push stream.ring page;
  prefetches

let reset t =
  Hashtbl.reset t.streams;
  Hashtbl.reset t.votes;
  t.couplings <- [];
  t.observations <- 0;
  t.cross_prefetches <- 0

let prefetcher t =
  { Ksim.Prefetcher.name = "cross-app";
    on_access = (fun ~pid ~page ~hit ~now -> on_access t ~pid ~page ~hit ~now);
    reset = (fun () -> reset t) }

let couplings t = t.couplings

type stats = {
  observations : int;
  active_couplings : int;
  cross_prefetches : int;
}

let stats (t : t) =
  { observations = t.observations;
    active_couplings = List.length t.couplings;
    cross_prefetches = t.cross_prefetches }
