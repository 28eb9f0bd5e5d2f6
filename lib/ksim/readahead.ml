(* The kernel's ondemand readahead fires on the second consecutive page:
   one +1 delta. *)
let trigger = 1
let initial_window = 4
let max_window = 8

type stream = {
  mutable last_page : int;
  mutable run : int;        (* consecutive +1 accesses *)
  mutable window : int;
  mutable ahead_until : int; (* highest page already requested for this stream *)
}

let create () =
  let streams : (int, stream) Hashtbl.t = Hashtbl.create 16 in
  let stream_of pid =
    match Hashtbl.find_opt streams pid with
    | Some s -> s
    | None ->
      let s = { last_page = min_int; run = 0; window = 0; ahead_until = min_int } in
      Hashtbl.replace streams pid s;
      s
  in
  let on_access ~pid ~page ~hit:_ ~now:_ =
    let s = stream_of pid in
    let sequential = page = s.last_page + 1 in
    s.last_page <- page;
    if sequential then begin
      s.run <- s.run + 1;
      if s.run >= trigger then begin
        s.window <-
          (if s.window = 0 then initial_window
           else Stdlib.min max_window (2 * s.window));
        (* Request only pages not already requested for this run. *)
        let target = page + s.window in
        let from = Stdlib.max (page + 1) (s.ahead_until + 1) in
        if target >= from then begin
          s.ahead_until <- target;
          List.init (target - from + 1) (fun i -> from + i)
        end
        else []
      end
      else []
    end
    else begin
      s.run <- 0;
      s.window <- 0;
      s.ahead_until <- min_int;
      []
    end
  in
  { Prefetcher.name = "linux-readahead"; on_access; reset = (fun () -> Hashtbl.reset streams) }
