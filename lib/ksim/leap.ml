(* Delta-window length, and the matches of the candidate delta required
   in it. *)
let history = 32
let min_support = 12

let majority deltas =
  let n = Array.length deltas in
  if n = 0 then None
  else begin
    (* Boyer–Moore vote, then one verification pass for the true support. *)
    let candidate = ref deltas.(0) and count = ref 0 in
    Array.iter
      (fun d ->
        if !count = 0 then begin
          candidate := d;
          count := 1
        end
        else if d = !candidate then incr count
        else decr count)
      deltas;
    let support = Array.fold_left (fun acc d -> if d = !candidate then acc + 1 else acc) 0 deltas in
    Some (!candidate, support)
  end

type stream = { mutable last_page : int; deltas : int array; mutable len : int; mutable pos : int }

let create ~depth () =
  let streams : (int, stream) Hashtbl.t = Hashtbl.create 16 in
  let stream_of pid =
    match Hashtbl.find_opt streams pid with
    | Some s -> s
    | None ->
      let s = { last_page = min_int; deltas = Array.make history 0; len = 0; pos = 0 } in
      Hashtbl.replace streams pid s;
      s
  in
  let on_access ~pid ~page ~hit:_ ~now:_ =
    let s = stream_of pid in
    let result =
      if s.last_page = min_int then []
      else begin
        let delta = page - s.last_page in
        s.deltas.(s.pos) <- delta;
        s.pos <- (s.pos + 1) mod history;
        if s.len < history then s.len <- s.len + 1;
        let window = Array.sub s.deltas 0 s.len in
        match majority window with
        | Some (trend, support) when trend <> 0 && support >= min_support ->
          List.init depth (fun k -> page + ((k + 1) * trend))
        | Some _ | None -> []
      end
    in
    s.last_page <- page;
    result
  in
  { Prefetcher.name = "leap"; on_access; reset = (fun () -> Hashtbl.reset streams) }
