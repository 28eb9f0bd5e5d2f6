exception Fuel_exhausted

(* Runtime traps, normalized at the Vm boundary (DESIGN.md section 12):
   every exception an engine can raise at runtime — fuel exhaustion, an
   out-of-bounds access in an unverified hand-linked program, a division
   trap, an injected fault, or a foreign failure out of a helper/model —
   is converted to a [trap] and contained in the batch slot that raised
   it, so callers above Vm see one trap type in [Batch.traps]. *)
type trap =
  | Trap_fuel
  | Trap_bounds of string
  | Trap_div
  | Trap_injected
  | Trap_foreign of string

exception Trap of trap

let trap_message = function
  | Trap_fuel -> "step budget exhausted"
  | Trap_bounds msg -> "out-of-bounds access: " ^ msg
  | Trap_div -> "division trap"
  | Trap_injected -> "injected fault"
  | Trap_foreign msg -> "foreign failure: " ^ msg

(* Engine exceptions normalized to a trap class; anything unrecognized
   (Out_of_memory, Assert_failure, ...) is a programming error and must
   propagate unchanged — callers re-raise on [None]. *)
let trap_of_exn = function
  | Trap trap -> Some trap
  | Fuel_exhausted -> Some Trap_fuel
  | Division_by_zero -> Some Trap_div
  | Invalid_argument msg -> Some (Trap_bounds msg)
  | Failure msg -> Some (Trap_foreign msg)
  | Stack_overflow -> Some (Trap_foreign "stack overflow")
  | _ -> None

type outcome = { result : int; steps : int; privacy_denied : int }

(* Engine step total, bumped once per invocation (never per step) so
   the inner dispatch loop stays untouched.  Run counts are the
   per-program accessors (Loaded.runs / total_steps). *)
let c_steps = Obs.Counter.make "rmt.interp.steps"

(* Semantics the JIT shares: the tail-call cap and the fixed-point
   arithmetic of Mat_mul / Vec_add_const. *)
let max_tail_depth = 32
let fix_mul a b = Kml.Fixed.to_raw (Kml.Fixed.mul (Kml.Fixed.of_raw a) (Kml.Fixed.of_raw b))
let fix_add a b = Kml.Fixed.to_raw (Kml.Fixed.add (Kml.Fixed.of_raw a) (Kml.Fixed.of_raw b))

type state = {
  regs : int array;
  mutable fuel : int;
  mutable steps : int;
  mutable denied : int;
}

exception Finished of int
exception Tail of int (* slot *)

let run_helper (loaded : Loaded.t) st env id =
  let arity = Helper.arity loaded.helpers id in
  let args = loaded.call_args.(arity) in
  for i = 0 to arity - 1 do
    args.(i) <- st.regs.(i + 1)
  done;
  let raw = Helper.invoke loaded.helpers id env args in
  let cost = Helper.privacy_cost loaded.helpers id in
  let result =
    if cost = 0 then raw
    else begin
      match loaded.privacy with
      | None ->
        (* unreachable for verified programs; fail closed *)
        st.denied <- st.denied + 1;
        0
      | Some acct ->
        (match Privacy.noisy_result acct ~rng:loaded.rng ~cost_milli:cost ~sensitivity:1 raw with
         | Some noisy -> noisy
         | None ->
           st.denied <- st.denied + 1;
           0)
    end
  in
  (* eBPF convention: helper result in r0, caller-saved r1..r5 scratched.
     Scratching writes a poison value so bugs surface in tests. *)
  st.regs.(0) <- result;
  for r = 1 to 5 do
    st.regs.(r) <- 0
  done

let run ?fuel (loaded : Loaded.t) ~ctxt ~now =
  let fuel =
    match fuel with
    | Some f -> f
    | None -> Verifier.max_steps * (max_tail_depth + 1)
  in
  if Fault.active () && Fault.fire Fault.Engine_trap then raise (Trap Trap_injected);
  let st = { regs = Array.make Insn.n_registers 0; fuel; steps = 0; denied = 0 } in
  let rec run_program (loaded : Loaded.t) depth =
    let env = loaded.env in
    env.Helper.ctxt <- ctxt;
    env.Helper.now <- now;
    let code = loaded.prog.Program.code in
    let vmem = loaded.vmem in
    Array.fill vmem 0 (Array.length vmem) 0;
    Array.fill st.regs 0 Insn.n_registers 0;
    (* Registers are zeroed for defined behaviour, but the verifier enforces
       def-before-use so programs cannot depend on it. *)
    let module I = Insn in
    (* Execute instructions within [pc_lo, pc_hi]; used for whole programs
       and, recursively, for Rep bodies. *)
    let rec exec_range pc pc_hi =
      if pc > pc_hi then ()
      else begin
        if st.fuel <= 0 then raise Fuel_exhausted;
        st.fuel <- st.fuel - 1;
        st.steps <- st.steps + 1;
        match code.(pc) with
        | I.Ld_imm (rd, imm) ->
          st.regs.(rd) <- imm;
          exec_range (pc + 1) pc_hi
        | I.Mov (rd, rs) ->
          st.regs.(rd) <- st.regs.(rs);
          exec_range (pc + 1) pc_hi
        | I.Alu (op, rd, rs) ->
          st.regs.(rd) <- Insn.eval_alu op st.regs.(rd) st.regs.(rs);
          exec_range (pc + 1) pc_hi
        | I.Alu_imm (op, rd, imm) ->
          st.regs.(rd) <- Insn.eval_alu op st.regs.(rd) imm;
          exec_range (pc + 1) pc_hi
        | I.Ld_ctxt (rd, rk) ->
          st.regs.(rd) <- Ctxt.get ctxt st.regs.(rk);
          exec_range (pc + 1) pc_hi
        | I.Ld_ctxt_k (rd, key) ->
          st.regs.(rd) <- Ctxt.get ctxt key;
          exec_range (pc + 1) pc_hi
        | I.St_ctxt (key, rs) ->
          Ctxt.set ctxt key st.regs.(rs);
          exec_range (pc + 1) pc_hi
        | I.St_ctxt_r (rk, rs) ->
          let key = st.regs.(rk) in
          if key >= 0 then Ctxt.set ctxt key st.regs.(rs);
          exec_range (pc + 1) pc_hi
        | I.Map_lookup (rd, slot, rk) ->
          st.regs.(rd) <- Map_store.lookup loaded.maps.(slot) st.regs.(rk);
          exec_range (pc + 1) pc_hi
        | I.Map_update (slot, rk, rv) ->
          Map_store.update loaded.maps.(slot) ~key:st.regs.(rk) ~value:st.regs.(rv);
          exec_range (pc + 1) pc_hi
        | I.Map_delete (slot, rk) ->
          Map_store.delete loaded.maps.(slot) st.regs.(rk);
          exec_range (pc + 1) pc_hi
        | I.Ring_push (slot, rv) ->
          Map_store.push loaded.maps.(slot) st.regs.(rv);
          exec_range (pc + 1) pc_hi
        | I.Jmp off -> exec_range (pc + 1 + off) pc_hi
        | I.Jcond (c, ra, rb, off) ->
          if Insn.eval_cond c st.regs.(ra) st.regs.(rb) then exec_range (pc + 1 + off) pc_hi
          else exec_range (pc + 1) pc_hi
        | I.Jcond_imm (c, ra, imm, off) ->
          if Insn.eval_cond c st.regs.(ra) imm then exec_range (pc + 1 + off) pc_hi
          else exec_range (pc + 1) pc_hi
        | I.Rep (count, body_len) ->
          for _ = 1 to count do
            exec_range (pc + 1) (pc + body_len)
          done;
          exec_range (pc + 1 + body_len) pc_hi
        | I.Call id ->
          run_helper loaded st env id;
          exec_range (pc + 1) pc_hi
        | I.Call_ml (slot, off, len) ->
          let features = loaded.ml_args.(slot) in
          (* A loop, not [Array.blit], which would take the write barrier
             for every word of this long-lived buffer (DESIGN.md section
             8). *)
          for i = 0 to len - 1 do
            features.(i) <- vmem.(off + i)
          done;
          st.regs.(0) <- Model_store.predict loaded.store loaded.models.(slot) features;
          for r = 1 to 5 do
            st.regs.(r) <- 0
          done;
          exec_range (pc + 1) pc_hi
        | I.Vec_ld_ctxt (dst, key, len) ->
          for i = 0 to len - 1 do
            vmem.(dst + i) <- Ctxt.get ctxt (key + i)
          done;
          exec_range (pc + 1) pc_hi
        | I.Vec_ld_map (dst, slot, rk, len) ->
          let base = st.regs.(rk) in
          for i = 0 to len - 1 do
            vmem.(dst + i) <- Map_store.lookup loaded.maps.(slot) (base + i)
          done;
          exec_range (pc + 1) pc_hi
        | I.Vec_st_reg (off, rs) ->
          vmem.(off) <- st.regs.(rs);
          exec_range (pc + 1) pc_hi
        | I.Vec_ld_reg (rd, off) ->
          st.regs.(rd) <- vmem.(off);
          exec_range (pc + 1) pc_hi
        | I.Vec_i2f (off, len) ->
          for i = 0 to len - 1 do
            vmem.(off + i) <- Kml.Fixed.to_raw (Kml.Fixed.of_int vmem.(off + i))
          done;
          exec_range (pc + 1) pc_hi
        | I.Mat_mul (dst, cid, src) ->
          let c = loaded.prog.Program.consts.(cid) in
          let data = loaded.consts.(cid) in
          let rows = c.Program.rows and cols = c.Program.cols in
          (* dst and src ranges are disjoint-checked by the verifier?  No:
             overlapping writes are allowed and behave as a sequential
             row-by-row computation reading the ORIGINAL src values.  We
             snapshot src (into preallocated scratch) to make that
             semantics explicit without allocating. *)
          let x = loaded.matmul_src in
          Array.blit vmem src x 0 cols;
          for i = 0 to rows - 1 do
            let acc = ref 0 in
            for j = 0 to cols - 1 do
              acc := fix_add !acc (fix_mul data.((i * cols) + j) x.(j))
            done;
            vmem.(dst + i) <- !acc
          done;
          exec_range (pc + 1) pc_hi
        | I.Vec_add_const (dst, cid) ->
          let c = loaded.prog.Program.consts.(cid) in
          let data = loaded.consts.(cid) in
          for i = 0 to c.Program.cols - 1 do
            vmem.(dst + i) <- fix_add vmem.(dst + i) data.(i)
          done;
          exec_range (pc + 1) pc_hi
        | I.Vec_relu (off, len) ->
          for i = 0 to len - 1 do
            if vmem.(off + i) < 0 then vmem.(off + i) <- 0
          done;
          exec_range (pc + 1) pc_hi
        | I.Vec_argmax (rd, off, len) ->
          let best = ref 0 in
          for i = 1 to len - 1 do
            if vmem.(off + i) > vmem.(off + !best) then best := i
          done;
          st.regs.(rd) <- !best;
          exec_range (pc + 1) pc_hi
        | I.Tail_call slot -> raise (Tail slot)
        | I.Exit ->
          let r0 = st.regs.(0) in
          let result =
            match loaded.guardrail with Some g -> Guardrail.apply g r0 | None -> r0
          in
          raise (Finished result)
      end
    in
    match exec_range 0 (Array.length code - 1) with
    | () ->
      (* verified programs cannot fall off the end; fail closed *)
      0
    | exception Finished r -> r
    | exception Tail slot ->
      if depth >= max_tail_depth then 0
      else begin
        match loaded.prog_table.(slot) with
        | Some target -> run_program target (depth + 1)
        | None -> 0
      end
  in
  let result = run_program loaded 0 in
  loaded.runs <- loaded.runs + 1;
  loaded.total_steps <- loaded.total_steps + st.steps;
  Obs.Counter.add c_steps st.steps;
  (match loaded.privacy with
   | Some _ -> ()
   | None -> ());
  { result; steps = st.steps; privacy_denied = st.denied }
