(** Bytecode interpreter (§3.1: "the program runs in the virtual machine in
    interpreted mode").

    Semantics are total for verified programs: division/modulo by zero
    yield 0, absent context/map keys read 0, denied privacy queries read 0,
    and tail calls to unbound slots (or beyond the depth limit) terminate
    with result 0.  The interpreter still carries a fuel counter as
    defence-in-depth; exhausting it — impossible for verified programs —
    raises [Fuel_exhausted]. *)

exception Fuel_exhausted

(** Runtime trap classes (DESIGN.md section 12).  Engines raise
    [Trap Trap_injected] directly under fault injection; everything else
    is normalized from raw exceptions at the Vm boundary, which contains
    each trap in its batch slot ({!Vm.invoke_batch}), so code above Vm
    never sees an engine exception. *)
type trap =
  | Trap_fuel            (** step budget exhausted (defence-in-depth) *)
  | Trap_bounds of string  (** OOB vmem/array access in an unverified program *)
  | Trap_div             (** hardware-level division trap *)
  | Trap_injected        (** deterministic fault injection ({!Fault}) *)
  | Trap_foreign of string  (** failure escaping a helper or model *)

exception Trap of trap

val trap_message : trap -> string

val trap_of_exn : exn -> trap option
(** Normalize any exception an engine can raise at runtime to its trap
    class; [None] for exceptions that are programming errors
    (Out_of_memory, Assert_failure, ...) — callers must re-raise those.
    The per-slot containment in {!Vm.invoke_batch} is the intended
    user. *)

type outcome = {
  result : int;          (** r0 at [Exit], post-guardrail *)
  steps : int;           (** dynamic instructions executed (incl. tail-callees) *)
  privacy_denied : int;  (** aggregate queries denied during this run *)
}

val run : ?fuel:int -> Loaded.t -> ctxt:Ctxt.t -> now:(unit -> int) -> outcome
(** Default fuel: {!Verifier.max_steps} × (tail-call depth limit + 1). *)

(** {2 Semantics shared with {!Jit}} *)

val max_tail_depth : int
(** Tail calls chain at most this deep; a [Tail_call] beyond it ends the
    run with result 0. *)

val fix_mul : int -> int -> int
val fix_add : int -> int -> int
(** {!Kml.Fixed} multiply and add on raw ints: the arithmetic of
    [Mat_mul] and [Vec_add_const]. *)
