(* Monotonic nanoseconds without allocation.  [Monotonic_clock.now] is a
   [@@noalloc] external returning an unboxed int64; converting it on the
   spot keeps it unboxed, where a [Unix.gettimeofday] wrapper would box a
   float on every call.  test_perfkit.ml checks the zero-allocation claim
   with [Gc.minor_words]. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

(* CPU nanoseconds of the whole process (every domain), also without
   allocation: [Sys.time] is an unboxed [@@noalloc] external.  On a shared
   host the wall clock also runs while the hypervisor serves other tenants
   (steal); process CPU time does not. *)
let[@inline] cpu_ns () = int_of_float (Sys.time () *. 1e9)
