(* Small-scope transition systems for the SPSC ring and the shard
   park/wake protocol (DESIGN.md section 15).

   Modeling rule: at most ONE shared-memory access per transition.  A
   transition may bundle that access with purely thread-local computation
   (reads of the thread's own cursors/caches and the verdict derived from
   them) because the local part commutes with every action of the other
   thread — bundling it does not hide any interleaving.  Splitting, by
   contrast, would be required if a transition touched two shared cells:
   e.g. the producer's refresh (load head) and its full verdict must live
   in one transition precisely because the verdict only reads the value
   just loaded, not shared state again.

   The verdict logic is not transcribed: transitions call the same
   Serve.Protocol functions the real Ring/Shard execute, so the checker
   exercises the implementation's own decision code.

   Property checks may read the whole state (both threads' variables):
   they are spec-level observations, not protocol steps — but any action
   whose ERROR PREDICATE reads the other thread's variables must be
   declared dependent on that thread's actions, which the independence
   relations below respect. *)

type ring_bug = Stale_cached_head | No_drain_refresh
type shard_bug = Dropped_wake

(* ------------------------------------------------------------------ *)
(* SPSC ring                                                           *)
(* ------------------------------------------------------------------ *)

let ring ?bug ~capacity ~pushes ~max_batch () =
  if capacity <= 0 || capacity land (capacity - 1) <> 0 then
    invalid_arg "Mc_models.ring: capacity must be a positive power of two";
  if pushes < 0 || max_batch <= 0 then invalid_arg "Mc_models.ring: bad scope";
  let module M = struct
    type state = {
      head : int; (* consumer cursor (shared: consumer writes) *)
      tail : int; (* producer cursor (shared: producer writes) *)
      cached_head : int; (* producer-owned snapshot of head *)
      cached_tail : int; (* consumer-owned snapshot of tail *)
      slots : int list; (* [capacity] cells; 1-based push sequence numbers *)
      pp : int; (* producer phase: 0 decide, 1 write, 2 publish *)
      remaining : int; (* pushes not yet attempted *)
      pushed : int; (* events published *)
      dropped : int; (* full verdicts (legitimate backpressure) *)
      cp : int; (* consumer phase: 0 decide, 1 copy, 2 publish *)
      batch : int; (* batch size chosen when cp > 0 *)
      drained : int; (* events consumed, FIFO-checked *)
      err : string option; (* in-step property violation *)
    }

    let name =
      Printf.sprintf "ring%s(capacity=%d pushes=%d max_batch=%d)"
        (match bug with
         | None -> ""
         | Some Stale_cached_head -> "[stale-cached-head]"
         | Some No_drain_refresh -> "[no-drain-refresh]")
        capacity pushes max_batch

    let initial =
      { head = 0;
        tail = 0;
        cached_head = 0;
        cached_tail = 0;
        slots = List.init capacity (fun _ -> 0);
        pp = 0;
        remaining = pushes;
        pushed = 0;
        dropped = 0;
        cp = 0;
        batch = 0;
        drained = 0;
        err = None }

    let key s =
      Printf.sprintf "%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%s" s.head s.tail
        s.cached_head s.cached_tail
        (String.concat "." (List.map string_of_int s.slots))
        s.pp s.remaining s.pushed s.dropped s.cp s.batch s.drained
        (match s.err with None -> "" | Some e -> e)

    let render s =
      Printf.sprintf
        "head=%d tail=%d ch=%d ct=%d slots=[%s] pp=%d rem=%d pushed=%d dropped=%d cp=%d batch=%d drained=%d"
        s.head s.tail s.cached_head s.cached_tail
        (String.concat ";" (List.map string_of_int s.slots))
        s.pp s.remaining s.pushed s.dropped s.cp s.batch s.drained

    let mask = capacity - 1
    let slot_get slots i = List.nth slots (i land mask)
    let slot_set slots i v = List.mapi (fun j x -> if j = i land mask then v else x) slots

    (* Producer transitions. *)
    let producer s =
      if s.err <> None then []
      else
        match s.pp with
        | 0 when s.remaining > 0 ->
          if Serve.Protocol.push_free ~tail:s.tail ~cached_head:s.cached_head ~capacity then
            (* Purely local: own cursor + own cache. *)
            [ ({ Mc.label = "p:free"; tid = 0 }, { s with pp = 1 }) ]
          else begin
            match bug with
            | Some Stale_cached_head ->
              (* BROKEN: conclude full from the stale snapshot.  The
                 property check reads the true head — a spec observation
                 (this action is declared dependent on consumer actions
                 for exactly that reason). *)
              let err =
                if not (s.tail - s.head >= capacity) then
                  Some
                    (Printf.sprintf
                       "lost push: full verdict with %d free slot(s) (tail=%d head=%d cap=%d)"
                       (capacity - (s.tail - s.head)) s.tail s.head capacity)
                else None
              in
              [ ({ Mc.label = "p:full-stale"; tid = 0 },
                 { s with remaining = s.remaining - 1; dropped = s.dropped + 1; err }) ]
            | None | Some No_drain_refresh ->
              (* One shared load (head) + local verdict on the loaded
                 value — the real Ring.try_push refresh-and-re-check. *)
              let ch = s.head in
              if Serve.Protocol.push_free ~tail:s.tail ~cached_head:ch ~capacity then
                [ ({ Mc.label = "p:refresh"; tid = 0 }, { s with cached_head = ch; pp = 1 }) ]
              else begin
                let err =
                  if not (s.tail - s.head >= capacity) then
                    Some "lost push: post-refresh full verdict with free space"
                  else None
                in
                [ ({ Mc.label = "p:refresh"; tid = 0 },
                   { s with
                     cached_head = ch;
                     remaining = s.remaining - 1;
                     dropped = s.dropped + 1;
                     err }) ]
              end
          end
        | 1 ->
          (* Shared: slot write.  Overwriting an undrained slot is the
             lost-push data race made concrete. *)
          let err =
            if s.tail - s.head >= capacity then
              Some
                (Printf.sprintf "overwrite of undrained slot %d (tail=%d head=%d)"
                   (s.tail land mask) s.tail s.head)
            else None
          in
          [ ({ Mc.label = "p:write"; tid = 0 },
             { s with slots = slot_set s.slots s.tail (s.pushed + 1); pp = 2; err }) ]
        | 2 ->
          (* Shared: tail publish (monotonic by construction: +1). *)
          [ ({ Mc.label = "p:publish"; tid = 0 },
             { s with
               tail = s.tail + 1;
               pushed = s.pushed + 1;
               remaining = s.remaining - 1;
               pp = 0 }) ]
        | _ -> []

    (* Consumer transitions. *)
    let consumer s =
      if s.err <> None then []
      else
        match s.cp with
        | 0 ->
          if Serve.Protocol.drain_ready ~cached_tail:s.cached_tail ~head:s.head ~max:max_batch
          then
            (* Purely local: own cursor + own cache. *)
            [ ({ Mc.label = "c:ready"; tid = 1 }, { s with batch = max_batch; cp = 1 }) ]
          else begin
            let quiescent_err ct =
              (* Empty verdict while the producer is done and events sit
                 published: drain_once would return 0, the shard would
                 park, and nothing would ever wake it for those events. *)
              if
                Serve.Protocol.drain_batch ~cached_tail:ct ~head:s.head ~max:max_batch <= 0
                && s.remaining = 0 && s.pp = 0
                && s.tail - s.head > 0
              then
                Some
                  (Printf.sprintf
                     "quiescent drain incomplete: empty verdict with %d event(s) published (tail=%d head=%d)"
                     (s.tail - s.head) s.tail s.head)
              else None
            in
            match bug with
            | Some No_drain_refresh ->
              (* BROKEN: verdict from the stale snapshot, no refresh. *)
              let n =
                Serve.Protocol.drain_batch ~cached_tail:s.cached_tail ~head:s.head
                  ~max:max_batch
              in
              if n <= 0 then
                [ ({ Mc.label = "c:empty-stale"; tid = 1 },
                   { s with err = quiescent_err s.cached_tail }) ]
              else
                [ ({ Mc.label = "c:empty-stale"; tid = 1 }, { s with batch = n; cp = 1 }) ]
            | None | Some Stale_cached_head ->
              (* One shared load (tail) + local verdict — the real
                 Ring.drain_into under-fill refresh. *)
              let ct = s.tail in
              let n = Serve.Protocol.drain_batch ~cached_tail:ct ~head:s.head ~max:max_batch in
              if n <= 0 then
                [ ({ Mc.label = "c:refresh"; tid = 1 },
                   { s with cached_tail = ct; err = quiescent_err ct }) ]
              else
                [ ({ Mc.label = "c:refresh"; tid = 1 },
                   { s with cached_tail = ct; batch = n; cp = 1 }) ]
          end
        | 1 ->
          (* Shared: slot reads.  FIFO: the batch must be exactly the
             next [batch] sequence numbers in push order. *)
          let rec fifo i =
            if i >= s.batch then None
            else
              let got = slot_get s.slots (s.head + i) in
              let want = s.drained + i + 1 in
              if got <> want then
                Some
                  (Printf.sprintf "FIFO violation: slot %d holds event %d, expected %d"
                     ((s.head + i) land mask) got want)
              else fifo (i + 1)
          in
          [ ({ Mc.label = "c:copy"; tid = 1 }, { s with cp = 2; err = fifo 0 }) ]
        | 2 ->
          (* Shared: head publish (monotonic: +batch). *)
          [ ({ Mc.label = "c:publish"; tid = 1 },
             { s with head = s.head + s.batch; drained = s.drained + s.batch; cp = 0 }) ]
        | _ -> []

    let step s = producer s @ consumer s

    let error s =
      match s.err with
      | Some _ as e -> e
      | None ->
        (* Cursor-cache validity / monotonicity: snapshots trail the true
           cursors (cursors only grow, snapshots are past reads). *)
        if s.cached_head > s.head then
          Some (Printf.sprintf "cached_head %d ahead of head %d" s.cached_head s.head)
        else if s.cached_tail > s.tail then
          Some (Printf.sprintf "cached_tail %d ahead of tail %d" s.cached_tail s.tail)
        else if s.head > s.tail then
          Some (Printf.sprintf "head %d overran tail %d" s.head s.tail)
        else None

    let accept s =
      (* Terminal only when the producer is done AND the consumer holds
         no further enabled action — the consumer always has one (cp=0
         re-checks forever), so terminals never arise; completeness is
         enforced by the quiescent-drain check instead. *)
      if s.tail - s.head > 0 then Some "terminated with undrained events" else None

    (* Valid independence (see the module comment): [c:ready] touches
       only consumer-owned state and no producer action reads it;
       [p:free] likewise except that the consumer's refresh/empty-stale
       error predicates read the producer's phase and remaining count
       for the quiescence test, so those two pairs stay dependent. *)
    let independent a b =
      let a, b = if a.Mc.tid <= b.Mc.tid then (a, b) else (b, a) in
      a.Mc.tid <> b.Mc.tid
      && (b.Mc.label = "c:ready"
          || (a.Mc.label = "p:free"
              && b.Mc.label <> "c:refresh"
              && b.Mc.label <> "c:empty-stale"))
  end in
  (module M : Mc.MODEL)

(* ------------------------------------------------------------------ *)
(* Shard park/wake                                                     *)
(* ------------------------------------------------------------------ *)

let shard ?bug ~pushes () =
  if pushes < 0 then invalid_arg "Mc_models.shard: bad scope";
  let module M = struct
    (* The rings are abstracted to an event count [q]: their granularity
       is covered by the ring model above. *)
    type state = {
      q : int; (* events visible in the rings *)
      parked : bool; (* shared flag, consumer-published *)
      lock : int; (* park mutex: 0 free, 1 producer, 2 consumer *)
      waiting : bool; (* consumer blocked in Condition.wait *)
      pushes : int; (* producer pushes remaining *)
      pp : int; (* producer phase *)
      cp : int; (* consumer phase *)
      served : int; (* events drained *)
    }

    let name =
      Printf.sprintf "shard%s(pushes=%d)"
        (match bug with None -> "" | Some Dropped_wake -> "[dropped-wake]")
        pushes

    let initial =
      { q = 0; parked = false; lock = 0; waiting = false; pushes; pp = 0; cp = 0; served = 0 }

    let key s =
      Printf.sprintf "%d,%b,%d,%b,%d,%d,%d,%d" s.q s.parked s.lock s.waiting s.pushes s.pp
        s.cp s.served

    let render s =
      Printf.sprintf "q=%d parked=%b lock=%d waiting=%b pushes=%d pp=%d cp=%d served=%d" s.q
        s.parked s.lock s.waiting s.pushes s.pp s.cp s.served

    (* After a push the producer either starts the wake protocol (peek
       parked) or, in the broken variant, skips it entirely. *)
    let after_push = match bug with Some Dropped_wake -> 0 | None -> 1

    let producer s =
      match s.pp with
      | 0 ->
        if s.pushes > 0 then
          (* Shared RMW: ring publish, abstracted to q+1. *)
          [ ({ Mc.label = "p:push"; tid = 0 },
             { s with q = s.q + 1; pushes = s.pushes - 1; pp = after_push }) ]
        else []
      | 1 ->
        (* Shared load: Shard.wake's single-atomic-load peek. *)
        [ ({ Mc.label = "p:peek-parked"; tid = 0 }, { s with pp = (if s.parked then 2 else 0) }) ]
      | 2 ->
        if s.lock = 0 then
          [ ({ Mc.label = "p:lock"; tid = 0 }, { s with lock = 1; pp = 3 }) ]
        else []
      | 3 ->
        (* Broadcast under the mutex: releases a waiting consumer. *)
        [ ({ Mc.label = "p:broadcast"; tid = 0 }, { s with waiting = false; pp = 4 }) ]
      | 4 -> [ ({ Mc.label = "p:unlock"; tid = 0 }, { s with lock = 0; pp = 0 }) ]
      | _ -> []

    let consumer s =
      match s.cp with
      | 0 ->
        (* Shared RMW: drain the rings (abstracted).  Work found loops
           back to the sweep; an empty sweep heads for the park path. *)
        if s.q > 0 then
          [ ({ Mc.label = "c:drain"; tid = 1 }, { s with served = s.served + s.q; q = 0 }) ]
        else [ ({ Mc.label = "c:drain"; tid = 1 }, { s with cp = 1 }) ]
      | 1 ->
        if s.lock = 0 then
          [ ({ Mc.label = "c:lock"; tid = 1 }, { s with lock = 2; cp = 2 }) ]
        else []
      | 2 ->
        (* Shared store: publish the parked flag (under the mutex). *)
        [ ({ Mc.label = "c:set-parked"; tid = 1 }, { s with parked = true; cp = 3 }) ]
      | 3 ->
        (* Shared load: the mutex-held re-check of the rings, decided by
           the exact predicate Shard.park runs.  Sleeping atomically
           releases the mutex (Condition.wait semantics): the release is
           part of the wait, not a separate step the producer could
           split. *)
        if Serve.Protocol.should_sleep ~should_stop:false ~rings_empty:(s.q = 0) then
          [ ({ Mc.label = "c:recheck-rings"; tid = 1 },
             { s with waiting = true; lock = 0; cp = 4 }) ]
        else [ ({ Mc.label = "c:recheck-rings"; tid = 1 }, { s with cp = 5 }) ]
      | 4 ->
        (* Blocked in Condition.wait until a broadcast clears [waiting];
           waking re-acquires the mutex. *)
        if (not s.waiting) && s.lock = 0 then
          [ ({ Mc.label = "c:wait-return"; tid = 1 }, { s with lock = 2; cp = 5 }) ]
        else []
      | 5 ->
        (* Shared store: clear the parked flag. *)
        [ ({ Mc.label = "c:clear-parked"; tid = 1 }, { s with parked = false; cp = 6 }) ]
      | 6 -> [ ({ Mc.label = "c:unlock"; tid = 1 }, { s with lock = 0; cp = 0 }) ]
      | _ -> []

    let step s = producer s @ consumer s

    let error _ = None

    let accept s =
      (* The only terminal: producer finished, consumer asleep with no
         broadcast in flight.  Legitimate exactly when nothing remains. *)
      if s.q = 0 then None
      else Some (Printf.sprintf "lost wake: consumer parked forever with q=%d" s.q)

    (* Variable-footprint independence: actions of different threads are
       independent iff their shared-variable footprints are disjoint
       (enabledness conditions included: p:lock/c:lock read [lock],
       c:wait-return reads [waiting] and [lock]). *)
    let footprint = function
      | "p:push" | "c:drain" -> [ "q" ]
      | "p:peek-parked" | "c:set-parked" | "c:clear-parked" -> [ "parked" ]
      | "p:lock" | "p:unlock" | "c:lock" | "c:unlock" -> [ "lock" ]
      | "p:broadcast" -> [ "waiting" ]
      | "c:recheck-rings" -> [ "q"; "waiting"; "lock" ]
      | "c:wait-return" -> [ "waiting"; "lock" ]
      | _ -> [ "q"; "parked"; "lock"; "waiting" ]

    let independent a b =
      a.Mc.tid <> b.Mc.tid
      && not
           (List.exists
              (fun v -> List.mem v (footprint b.Mc.label))
              (footprint a.Mc.label))
  end in
  (module M : Mc.MODEL)
