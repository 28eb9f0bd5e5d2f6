(** RMT program container (§3.1).

    A program is bytecode plus its *declarations*: the constant pool
    (quantized model parameters and lookup vectors), the map slots it
    expects to be bound at load time, the model slots with their feature
    arity, the tail-call slots, and the safety capabilities it claims
    (rate limiting, output guardrails, privacy budget).  Loading a program
    (see {!Control}) links the declared slots to concrete kernel objects
    and runs the verifier against the linked environment. *)

type const = { name : string; rows : int; cols : int; data : int array }
(** A constant-pool entry: a [rows]×[cols] matrix (or vector when
    [rows = 1]) of raw Q16.16 words, row-major. *)

type capability =
  | Rate_limited of { tokens_per_sec : int; burst : int }
      (** the action result is a resource request and must pass a token
          bucket (§3.3 "Performance interference") *)
  | Guarded of { lo : int; hi : int }
      (** the action result is clamped to \[lo, hi\] (§3.3 "Model safety") *)
  | Privacy_budget of { epsilon_milli : int }
      (** total DP budget for aggregate context queries (§3.3 "Privacy") *)

type t = {
  name : string;
  code : Insn.t array;
  vmem_size : int;                  (** vector scratchpad words (zeroed per run) *)
  consts : const array;
  map_specs : Map_store.spec array; (** one per map slot *)
  model_arity : int array;          (** expected feature count per model slot *)
  n_prog_slots : int;               (** tail-call slots *)
  capabilities : capability list;
}

val make :
  name:string ->
  ?vmem_size:int ->
  ?consts:const list ->
  ?map_specs:Map_store.spec list ->
  ?model_arity:int list ->
  ?n_prog_slots:int ->
  ?capabilities:capability list ->
  Insn.t list ->
  t

val const_vector : name:string -> Kml.Fixed.t array -> const
val const_matrix : name:string -> rows:int -> cols:int -> Kml.Fixed.t array -> const
(** Raises [Invalid_argument] if [Array.length data <> rows * cols]. *)

val rate_limited : t -> (int * int) option
(** [(tokens_per_sec, burst)] when declared. *)

val guarded : t -> (int * int) option
val privacy_budget : t -> int option
val pp : Format.formatter -> t -> unit
(** Disassembly listing with declarations. *)
