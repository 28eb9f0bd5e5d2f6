module Key = struct
  type t = int * int (* vruntime, task id *)

  let compare = compare
end

module S = Map.Make (Key)

type t = {
  cpu : int;
  mutable tree : Task.t S.t;
  mutable load : int;
  mutable min_vruntime : int;
}

let create ~cpu = { cpu; tree = S.empty; load = 0; min_vruntime = 0 }

let key (task : Task.t) = (task.Task.vruntime, task.Task.id)

let update_min t =
  match S.min_binding_opt t.tree with
  | Some ((v, _), _) -> if v > t.min_vruntime then t.min_vruntime <- v
  | None -> ()

let enqueue t task =
  if S.mem (key task) t.tree then invalid_arg "Runqueue.enqueue: task already queued";
  (* Newly placed tasks never undercut min_vruntime by more than a tick:
     clamp, as CFS's place_entity does. *)
  if task.Task.vruntime < t.min_vruntime then task.Task.vruntime <- t.min_vruntime;
  t.tree <- S.add (key task) task t.tree;
  t.load <- t.load + Task.weight;
  task.Task.cpu <- t.cpu

let dequeue_min t =
  match S.min_binding_opt t.tree with
  | None -> None
  | Some (k, task) ->
    t.tree <- S.remove k t.tree;
    t.load <- t.load - Task.weight;
    (* CFS semantics: the floor follows the task now entering execution, so
       wakers enqueued later cannot undercut it. *)
    if task.Task.vruntime > t.min_vruntime then t.min_vruntime <- task.Task.vruntime;
    update_min t;
    Some task

let remove t task =
  let k = key task in
  if S.mem k t.tree then begin
    t.tree <- S.remove k t.tree;
    t.load <- t.load - Task.weight;
    true
  end
  else false

let nr_running t = S.cardinal t.tree
let load t = t.load
let min_vruntime t = t.min_vruntime
let to_list t = List.map snd (S.bindings t.tree)
