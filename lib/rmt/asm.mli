(** Textual assembler and disassembler for RMT programs.

    The paper envisions RMT programs "written in constrained C or a
    domain-specific language and compiled into machine-independent
    bytecode, and installed via a system call".  This module is that DSL's
    bottom layer: a line-oriented assembly with declarations, labels and
    the full instruction set, used by [rkdctl verify]/[disasm] and by
    tests.  [print] emits text that [parse] accepts (round-trip property
    tested).

    Syntax sketch:
    {v
    .name prefetch_predict
    .vmem 32
    .map ring 16          ; slot 0
    .model 8              ; slot 0, 8 features
    .cap guard 0 8
      ldctxtk r1, 1       ; faulting page
      jgti r1, 4095, overflow
      vldctxt 0, 8, 8     ; feature window
      callml model0, 0, 8
      exit
    overflow:
      ldimm r0, 0
      exit
    v} *)

type error = { line : int; message : string }

val parse : ?helpers:Helper.t -> string -> (Program.t, error) result
(** [helpers] (default {!Helper.with_defaults}) resolves symbolic helper
    names in [call] instructions. *)

val parse_exn : string -> Program.t
(** {!parse} with the default helpers; raises [Failure] with a located
    message. *)

val print : Program.t -> string
val pp_error : Format.formatter -> error -> unit
