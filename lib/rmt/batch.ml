type t = {
  ctxts : Ctxt.t array;
  results : int array;
  steps : int array;
  denied : int array;
  traps : Interp.trap option array;
  mutable n : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Batch.create: capacity must be >= 1";
  { ctxts = Array.init capacity (fun _ -> Ctxt.create ());
    results = Array.make capacity 0;
    steps = Array.make capacity 0;
    denied = Array.make capacity 0;
    traps = Array.make capacity None;
    n = capacity }

let capacity t = Array.length t.ctxts

let set_n t n =
  if n < 0 || n > capacity t then invalid_arg "Batch.set_n: out of range";
  t.n <- n
