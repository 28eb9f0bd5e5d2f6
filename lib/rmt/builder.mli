(** Program construction eDSL.

    The builder accumulates instructions with symbolic labels and resolves
    them to the forward-relative offsets the ISA requires, so handwritten
    programs stay readable:

    {[
      let open Rmt.Builder in
      let b = create ~name:"demo" () in
      let done_ = fresh_label b in
      emit b (Ld_ctxt_k (1, 0));
      jump_if b Insn.Le ~reg:1 ~imm:0 ~target:done_;
      emit b (Alu_imm (Insn.Add, 1, 1));
      place b done_;
      emit b (Mov (0, 1));
      emit b Exit;
      let prog = finish b ()
    ]}

    [finish] fails on unplaced or backward labels — the builder cannot
    express programs the verifier would reject for control-flow reasons. *)

type t
type label

val create : name:string -> ?vmem_size:int -> unit -> t
val fresh_label : t -> label
val place : t -> label -> unit
(** Raises [Invalid_argument] when placed twice. *)

val emit : t -> Insn.t -> unit
val jump_if : t -> Insn.cond -> reg:Insn.reg -> imm:int -> target:label -> unit

val add_const : t -> Program.const -> int
(** Returns the constant-pool id. *)

val add_model : t -> n_features:int -> int
(** Returns the model slot. *)

val add_prog_slot : t -> int
val add_capability : t -> Program.capability -> unit

val finish : t -> unit -> Program.t
(** Resolves labels.  Raises [Invalid_argument] on unplaced labels or a
    label placed before its use site (backward jump). *)
