(* Result reporting: the human-readable lines and the one-line JSON result
   the benchmark ends with. *)

(* Metrics are (name, value) pairs; main.ml holds the one catalogue of
   names and units and attaches the units. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
}

let line fmt = Printf.printf ("  " ^^ fmt ^^ "\n%!")

let number v =
  if not (Float.is_finite v) then failwith (Printf.sprintf "non-finite metric value %h" v);
  Printf.sprintf "%.17g" v

(* The last line of standard output.  [metrics] are (name, unit, value). *)
let print_json r metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, value) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed body

(* Output checks: every failed check is printed and fails the run. *)
type checks = { mutable ok : bool }

let checks () = { ok = true }

let check c name cond =
  if not cond then c.ok <- false;
  line "check %-44s %s" name (if cond then "ok" else "FAILED")

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let seconds_of ns = float_of_int ns /. 1e9

(* The [Gc] top heap size so far, in MB. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
