(** Machine-independent binary encoding of RMT programs (§3.1: programs are
    "compiled into machine-independent bytecode, and installed via a system
    call").

    The wire format is deliberately simple and fully validated on decode:

    {v
    magic "RMTB" | version u8 | name | vmem | n_prog_slots
    consts   : count, then per const: name, rows, cols, raw words
    maps     : count, then per map: kind u8, capacity
    models   : count, then per model slot: feature arity
    caps     : count, then per capability: tag u8 + payload
    code     : count, then per instruction: opcode u8 + operands
    v}

    All integers are zigzag LEB128 varints, so the encoding is independent
    of host word size and endianness.  [decode] never trusts its input:
    every read is bounds-checked and every enum validated, returning
    [Error] rather than raising — a decoded program still goes through
    {!Verifier.check} before it can run. *)

val encode : Program.t -> bytes
val decode : bytes -> (Program.t, string) result

val magic : string
(** ["RMTB"]. *)
