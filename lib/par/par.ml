(* Fixed domain pool with one shared cursor per batch.

   A batch over indices [0, n) keeps an atomic cursor that starts at
   [n - 1]; every participant claims the next index with
   [fetch_and_add] until the cursor goes negative, so the last indices
   start first and an idle participant simply claims more of them. *)

type job = {
  run : int -> unit;
  next : int Atomic.t;      (* next index to claim, counting down *)
  remaining : int Atomic.t; (* indices not yet finished *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  failure_lock : Mutex.t;
}

type pool = {
  mutable workers : unit Domain.t array;
  width : int; (* participants, including the submitter *)
  m : Mutex.t; (* guards current / gen / stop *)
  work_cv : Condition.t;
  done_cv : Condition.t;
  submit_lock : Mutex.t; (* one batch in flight at a time *)
  mutable current : job option;
  mutable gen : int;
  mutable stop : bool;
  mutable joined : bool;
}

(* A task running on any participant sets this flag so nested batches run
   inline instead of re-entering the pool (which would deadlock on
   [submit_lock]) or oversubscribing the machine. *)
let inside_pool : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let clamp_domains n = if n < 1 then 1 else if n > 64 then 64 else n

let default_domains () =
  let from_env =
    match Sys.getenv_opt "RKD_DOMAINS" with
    | Some s ->
      (match int_of_string_opt (String.trim s) with
       | Some n when n > 0 -> Some n
       | Some _ | None -> None)
    | None -> None
  in
  clamp_domains
    (match from_env with Some n -> n | None -> Domain.recommended_domain_count ())

let record_failure job exn bt =
  Mutex.lock job.failure_lock;
  if job.failure = None then job.failure <- Some (exn, bt);
  Mutex.unlock job.failure_lock

let participate pool job =
  let flag = Domain.DLS.get inside_pool in
  let saved = !flag in
  flag := true;
  let rec loop () =
    let i = Atomic.fetch_and_add job.next (-1) in
    if i >= 0 then begin
      (try job.run i with exn -> record_failure job exn (Printexc.get_raw_backtrace ()));
      (* [fetch_and_add] returns the pre-decrement value. *)
      if Atomic.fetch_and_add job.remaining (-1) = 1 then begin
        Mutex.lock pool.m;
        Condition.broadcast pool.done_cv;
        Mutex.unlock pool.m
      end;
      loop ()
    end
  in
  loop ();
  flag := saved

let worker_main pool =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.m;
    while (not pool.stop) && pool.gen = !seen do
      Condition.wait pool.work_cv pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      seen := pool.gen;
      let job = pool.current in
      Mutex.unlock pool.m;
      (match job with Some j -> participate pool j | None -> ());
      loop ()
    end
  in
  loop ()

let create ?domains () =
  let width = clamp_domains (match domains with Some n -> n | None -> default_domains ()) in
  let pool =
    { workers = [||];
      width;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      submit_lock = Mutex.create ();
      current = None;
      gen = 0;
      stop = false;
      joined = false }
  in
  if width > 1 then
    pool.workers <-
      Array.init (width - 1) (fun _ -> Domain.spawn (fun () -> worker_main pool));
  pool

let shutdown pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.m;
  if not pool.joined then begin
    pool.joined <- true;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end

(* ---------------- batch submission ---------------- *)

let run_batch pool ~n ~run =
  Mutex.lock pool.submit_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock pool.submit_lock)
    (fun () ->
      let job =
        { run;
          next = Atomic.make (n - 1);
          remaining = Atomic.make n;
          failure = None;
          failure_lock = Mutex.create () }
      in
      Mutex.lock pool.m;
      pool.current <- Some job;
      pool.gen <- pool.gen + 1;
      Condition.broadcast pool.work_cv;
      Mutex.unlock pool.m;
      participate pool job;
      Mutex.lock pool.m;
      while Atomic.get job.remaining > 0 do
        Condition.wait pool.done_cv pool.m
      done;
      pool.current <- None;
      Mutex.unlock pool.m;
      match job.failure with
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ())

let parallel_map_array pool f arr =
  let n = Array.length arr in
  (* Width 1, a shut-down pool, a batch submitted from inside a pool task
     and a batch of at most one item run inline: no per-element option
     boxing, no unboxing pass — a width-1 pool is bit-for-bit an
     [Array.map]. *)
  if n <= 1 || pool.width <= 1 || pool.stop || !(Domain.DLS.get inside_pool) then
    Array.map f arr
  else begin
    let out = Array.make n None in
    run_batch pool ~n ~run:(fun i -> out.(i) <- Some (f arr.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map pool f l =
  Array.to_list (parallel_map_array pool f (Array.of_list l))

let run_tasks pool thunks = parallel_map pool (fun f -> f ()) thunks

(* ---------------- pinned long-lived workers ---------------- *)

(* The pool runs short indexed batches; the serving layer needs
   the opposite shape — a domain that lives for the whole serving session
   and owns its shard's state.  A pinned worker marks itself as inside
   the pool so any nested [run_batch] it reaches (model retraining, say)
   runs inline on its own domain instead of re-entering the shared pool
   and oversubscribing the machine. *)
module Pinned = struct
  type t = unit Domain.t

  let spawn f =
    Domain.spawn (fun () ->
        let flag = Domain.DLS.get inside_pool in
        flag := true;
        f ())

  let join t = Domain.join t
end

(* ---------------- global pool ---------------- *)

let global_lock = Mutex.create ()
let global_pool = ref (None : pool option)
let exit_hooked = ref false

(* Must be called with [global_lock] held. *)
let register_exit_hook () =
  if not !exit_hooked then begin
    exit_hooked := true;
    at_exit (fun () ->
        Mutex.lock global_lock;
        let p = !global_pool in
        global_pool := None;
        Mutex.unlock global_lock;
        Option.iter shutdown p)
  end

let global () =
  Mutex.lock global_lock;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
      let p = create () in
      global_pool := Some p;
      register_exit_hook ();
      p
  in
  Mutex.unlock global_lock;
  p

let global_domains () =
  Mutex.lock global_lock;
  let n = match !global_pool with Some p -> p.width | None -> default_domains () in
  Mutex.unlock global_lock;
  n

let set_global_domains n =
  let n = clamp_domains n in
  Mutex.lock global_lock;
  let old = !global_pool in
  let unchanged = match old with Some p -> p.width = n | None -> false in
  if unchanged then Mutex.unlock global_lock
  else begin
    global_pool := None;
    Mutex.unlock global_lock;
    Option.iter shutdown old;
    let p = create ~domains:n () in
    Mutex.lock global_lock;
    global_pool := Some p;
    register_exit_hook ();
    Mutex.unlock global_lock
  end

let replay ~widths f =
  let saved = global_domains () in
  Fun.protect
    ~finally:(fun () -> set_global_domains saved)
    (fun () ->
      List.map
        (fun w ->
          set_global_domains w;
          (global_domains (), f ()))
        widths)
