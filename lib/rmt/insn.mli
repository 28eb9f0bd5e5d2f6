(** RMT bytecode instruction set (§3.1–3.2).

    Scalar instructions operate on 16 general registers [r0]–[r15]; [r0] is
    the action result at [Exit] and the return register of helper calls.
    ML instructions (patterned after neural-processor ISAs, cf. Cambricon)
    operate on a per-program vector scratchpad of Q16.16 words, with model
    parameters held in the program's constant pool or in the model store.

    Control flow is restricted by construction: branch offsets are relative
    and the verifier admits only strictly forward targets; bounded loops are
    expressed with [Rep], whose trip count is a compile-time constant. *)

type reg = int
(** Register index, 0..15. *)

val n_registers : int

type alu =
  | Add | Sub | Mul | Div | Mod
  | And | Or | Xor | Shl | Shr
  | Min | Max

type cond = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Ld_imm of reg * int          (** rd <- imm *)
  | Mov of reg * reg             (** rd <- rs *)
  | Alu of alu * reg * reg       (** rd <- rd op rs; Div/Mod by zero yield 0 *)
  | Alu_imm of alu * reg * int
  | Ld_ctxt of reg * reg         (** RMT_LD_CTXT: rd <- ctxt\[key in rs\]; absent keys read 0 *)
  | Ld_ctxt_k of reg * int       (** rd <- ctxt\[key imm\] *)
  | St_ctxt of int * reg         (** RMT_ST_CTXT: ctxt\[key imm\] <- rs *)
  | St_ctxt_r of reg * reg       (** ctxt\[key in rk\] <- rs (key register first) *)
  | Map_lookup of reg * int * reg  (** rd <- map#slot\[key in rk\]; absent reads 0 *)
  | Map_update of int * reg * reg  (** map#slot\[key in rk\] <- rv *)
  | Map_delete of int * reg
  | Ring_push of int * reg       (** push rv onto ring map#slot *)
  | Jmp of int                   (** pc <- pc + 1 + offset; offset >= 0 after verification *)
  | Jcond of cond * reg * reg * int   (** if ra op rb then jump *)
  | Jcond_imm of cond * reg * int * int
  | Rep of int * int             (** Rep (count, body_len): run the next body_len insns count times *)
  | Call of int                  (** helper call by id; args r1..r5, result r0 *)
  | Call_ml of int * int * int   (** CALL ml: model#slot on vmem\[off, off+len); class -> r0 *)
  | Vec_ld_ctxt of int * int * int (** RMT_VECTOR_LD: vmem\[dst..dst+len) <- ctxt\[key..key+len) *)
  | Vec_ld_map of int * int * reg * int (** vmem\[dst..dst+len) <- map#slot\[k..k+len) for k from rk *)
  | Vec_st_reg of int * reg      (** vmem\[off\] <- rs (raw Q16.16 bits) *)
  | Vec_ld_reg of reg * int      (** RMT_SCALAR_VAL: rd <- vmem\[off\] (raw bits) *)
  | Vec_i2f of int * int         (** convert vmem\[off..off+len) from integers to Q16.16 *)
  | Mat_mul of int * int * int   (** RMT_MAT_MUL: vmem\[dst..dst+rows) <- const#id * vmem\[src..src+cols) *)
  | Vec_add_const of int * int   (** vmem\[dst..dst+len) += const#id (a vector constant) *)
  | Vec_relu of int * int        (** relu vmem\[off..off+len) in place *)
  | Vec_argmax of reg * int * int (** rd <- argmax vmem\[off..off+len) *)
  | Tail_call of int             (** TAIL_CALL: cascade into program slot *)
  | Exit                         (** leave the pipeline; r0 is the action result *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val alu_name : alu -> string
val cond_name : cond -> string
val eval_alu : alu -> int -> int -> int
(** Shared ALU semantics (interpreter and JIT must agree); division and
    modulo by zero return 0.  Shifts mask their amount with [land 62],
    so only even shifts exist: an amount of 1 shifts by 0 and 3 shifts
    by 2.  A multiply by [2^k] is therefore not [Shl k] for odd [k]. *)

val eval_cond : cond -> int -> int -> bool
