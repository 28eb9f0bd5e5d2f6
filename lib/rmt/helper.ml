type env = {
  mutable ctxt : Ctxt.t;
  mutable now : unit -> int;
  random : unit -> int;
}

type entry = {
  name : string;
  arity : int;
  privacy_cost : int;
  fn : env -> int array -> int;
}

type t = { mutable entries : entry array; mutable len : int }

let create () = { entries = [||]; len = 0 }

let register t ~name ~arity ?(privacy_cost = 0) fn =
  if arity < 0 || arity > 5 then invalid_arg "Helper.register: arity must be within 0..5";
  if privacy_cost < 0 then invalid_arg "Helper.register: negative privacy cost";
  if t.len >= Array.length t.entries then begin
    let cap = Stdlib.max 8 (2 * Array.length t.entries) in
    let bigger = Array.make cap { name = ""; arity = 0; privacy_cost = 0; fn } in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end;
  let id = t.len in
  t.entries.(id) <- { name; arity; privacy_cost; fn };
  t.len <- t.len + 1;
  id

let check t id fn_name =
  if id < 0 || id >= t.len then invalid_arg ("Helper." ^ fn_name ^ ": unknown helper id")

let id_of_name t n =
  let rec go i =
    if i >= t.len then None else if t.entries.(i).name = n then Some i else go (i + 1)
  in
  go 0

let name t id = check t id "name"; t.entries.(id).name
let arity t id = check t id "arity"; t.entries.(id).arity
let privacy_cost t id = check t id "privacy_cost"; t.entries.(id).privacy_cost
let mem t id = id >= 0 && id < t.len

let invoke t id env args =
  check t id "invoke";
  let e = t.entries.(id) in
  if Array.length args <> e.arity then invalid_arg "Helper.invoke: arity mismatch";
  let r = e.fn env args in
  (* Fault seam: a misbehaving kernel helper (DESIGN.md section 12). *)
  if Fault.active () && Fault.fire Fault.Helper_fail then Fault.garbage () else r

(* Standard helper set.  Ids are stable: they are assigned in registration
   order below and exposed as module-level constants. *)
let ktime_get = 0
let abs_val = 1
let log2_floor = 2
let ctxt_sum_range = 3
let ctxt_count_nonzero = 4
let sign = 5
let clamp3 = 6

let with_defaults () =
  let t = create () in
  let expect expected actual =
    if expected <> actual then invalid_arg "Helper.with_defaults: id drift"
  in
  expect ktime_get (register t ~name:"ktime_get" ~arity:0 (fun env _ -> env.now ()));
  expect abs_val (register t ~name:"abs" ~arity:1 (fun _ args -> Stdlib.abs args.(0)));
  expect log2_floor
    (register t ~name:"log2_floor" ~arity:1 (fun _ args ->
         let x = args.(0) in
         if x <= 1 then 0
         else begin
           let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
           go x 0
         end));
  expect ctxt_sum_range
    (register t ~name:"ctxt_sum_range" ~arity:2 ~privacy_cost:100 (fun env args ->
         let base = args.(0) and len = Stdlib.min (Stdlib.max 0 args.(1)) 4096 in
         let acc = ref 0 in
         for k = base to base + len - 1 do
           acc := !acc + Ctxt.get env.ctxt k
         done;
         !acc));
  expect ctxt_count_nonzero
    (register t ~name:"ctxt_count_nonzero" ~arity:2 ~privacy_cost:50 (fun env args ->
         let base = args.(0) and len = Stdlib.min (Stdlib.max 0 args.(1)) 4096 in
         let acc = ref 0 in
         for k = base to base + len - 1 do
           if Ctxt.get env.ctxt k <> 0 then incr acc
         done;
         !acc));
  expect sign
    (register t ~name:"sign" ~arity:1 (fun _ args -> compare args.(0) 0));
  expect clamp3
    (register t ~name:"clamp" ~arity:3 (fun _ args ->
         Stdlib.min args.(2) (Stdlib.max args.(1) args.(0))));
  t
