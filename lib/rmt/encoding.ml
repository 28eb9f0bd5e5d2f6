let magic = "RMTB"
let version = 1

(* ------------------------------------------------------------------ *)
(* Primitive writers: zigzag LEB128 varints and length-prefixed strings *)
(* ------------------------------------------------------------------ *)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

let write_varint buf n =
  let z = ref (zigzag n) in
  let continue = ref true in
  while !continue do
    let byte = !z land 0x7f in
    z := !z lsr 7;
    if !z = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

(* ------------------------------------------------------------------ *)
(* Primitive readers, bounds-checked                                    *)
(* ------------------------------------------------------------------ *)

exception Malformed of string

type reader = { data : bytes; mutable pos : int }

let read_byte r =
  if r.pos >= Bytes.length r.data then raise (Malformed "truncated input");
  let b = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  b

let read_varint r =
  let z = ref 0 and shift = ref 0 in
  let continue = ref true in
  while !continue do
    if !shift > 63 then raise (Malformed "varint too long");
    let b = read_byte r in
    z := !z lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  unzigzag !z

let read_count r ~what ~max =
  let n = read_varint r in
  if n < 0 || n > max then raise (Malformed (Printf.sprintf "bad %s count %d" what n));
  n

let read_string r =
  let n = read_count r ~what:"string" ~max:4096 in
  if r.pos + n > Bytes.length r.data then raise (Malformed "truncated string");
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Instruction opcodes                                                  *)
(* ------------------------------------------------------------------ *)

let alu_code = function
  | Insn.Add -> 0 | Insn.Sub -> 1 | Insn.Mul -> 2 | Insn.Div -> 3 | Insn.Mod -> 4
  | Insn.And -> 5 | Insn.Or -> 6 | Insn.Xor -> 7 | Insn.Shl -> 8 | Insn.Shr -> 9
  | Insn.Min -> 10 | Insn.Max -> 11

let alu_of_code = function
  | 0 -> Insn.Add | 1 -> Insn.Sub | 2 -> Insn.Mul | 3 -> Insn.Div | 4 -> Insn.Mod
  | 5 -> Insn.And | 6 -> Insn.Or | 7 -> Insn.Xor | 8 -> Insn.Shl | 9 -> Insn.Shr
  | 10 -> Insn.Min | 11 -> Insn.Max
  | c -> raise (Malformed (Printf.sprintf "bad alu op %d" c))

let cond_code = function
  | Insn.Eq -> 0 | Insn.Ne -> 1 | Insn.Lt -> 2 | Insn.Le -> 3 | Insn.Gt -> 4 | Insn.Ge -> 5

let cond_of_code = function
  | 0 -> Insn.Eq | 1 -> Insn.Ne | 2 -> Insn.Lt | 3 -> Insn.Le | 4 -> Insn.Gt | 5 -> Insn.Ge
  | c -> raise (Malformed (Printf.sprintf "bad cond %d" c))

(* Each instruction: opcode byte, then its operands as varints. *)
let write_insn buf insn =
  let op code operands =
    Buffer.add_char buf (Char.chr code);
    List.iter (write_varint buf) operands
  in
  match insn with
  | Insn.Ld_imm (rd, imm) -> op 0 [ rd; imm ]
  | Insn.Mov (rd, rs) -> op 1 [ rd; rs ]
  | Insn.Alu (a, rd, rs) -> op 2 [ alu_code a; rd; rs ]
  | Insn.Alu_imm (a, rd, imm) -> op 3 [ alu_code a; rd; imm ]
  | Insn.Ld_ctxt (rd, rk) -> op 4 [ rd; rk ]
  | Insn.Ld_ctxt_k (rd, key) -> op 5 [ rd; key ]
  | Insn.St_ctxt (key, rs) -> op 6 [ key; rs ]
  | Insn.St_ctxt_r (rk, rs) -> op 7 [ rk; rs ]
  | Insn.Map_lookup (rd, slot, rk) -> op 8 [ rd; slot; rk ]
  | Insn.Map_update (slot, rk, rv) -> op 9 [ slot; rk; rv ]
  | Insn.Map_delete (slot, rk) -> op 10 [ slot; rk ]
  | Insn.Ring_push (slot, rv) -> op 11 [ slot; rv ]
  | Insn.Jmp off -> op 12 [ off ]
  | Insn.Jcond (c, ra, rb, off) -> op 13 [ cond_code c; ra; rb; off ]
  | Insn.Jcond_imm (c, ra, imm, off) -> op 14 [ cond_code c; ra; imm; off ]
  | Insn.Rep (count, body) -> op 15 [ count; body ]
  | Insn.Call id -> op 16 [ id ]
  | Insn.Call_ml (slot, off, len) -> op 17 [ slot; off; len ]
  | Insn.Vec_ld_ctxt (dst, key, len) -> op 18 [ dst; key; len ]
  | Insn.Vec_ld_map (dst, slot, rk, len) -> op 19 [ dst; slot; rk; len ]
  | Insn.Vec_st_reg (off, rs) -> op 20 [ off; rs ]
  | Insn.Vec_ld_reg (rd, off) -> op 21 [ rd; off ]
  | Insn.Vec_i2f (off, len) -> op 22 [ off; len ]
  | Insn.Mat_mul (dst, cid, src) -> op 23 [ dst; cid; src ]
  | Insn.Vec_add_const (dst, cid) -> op 24 [ dst; cid ]
  | Insn.Vec_relu (off, len) -> op 25 [ off; len ]
  | Insn.Vec_argmax (rd, off, len) -> op 26 [ rd; off; len ]
  | Insn.Tail_call slot -> op 27 [ slot ]
  | Insn.Exit -> op 28 []

let read_insn r =
  let v () = read_varint r in
  match read_byte r with
  | 0 -> let rd = v () in Insn.Ld_imm (rd, v ())
  | 1 -> let rd = v () in Insn.Mov (rd, v ())
  | 2 -> let a = alu_of_code (v ()) in let rd = v () in Insn.Alu (a, rd, v ())
  | 3 -> let a = alu_of_code (v ()) in let rd = v () in Insn.Alu_imm (a, rd, v ())
  | 4 -> let rd = v () in Insn.Ld_ctxt (rd, v ())
  | 5 -> let rd = v () in Insn.Ld_ctxt_k (rd, v ())
  | 6 -> let key = v () in Insn.St_ctxt (key, v ())
  | 7 -> let rk = v () in Insn.St_ctxt_r (rk, v ())
  | 8 -> let rd = v () in let slot = v () in Insn.Map_lookup (rd, slot, v ())
  | 9 -> let slot = v () in let rk = v () in Insn.Map_update (slot, rk, v ())
  | 10 -> let slot = v () in Insn.Map_delete (slot, v ())
  | 11 -> let slot = v () in Insn.Ring_push (slot, v ())
  | 12 -> Insn.Jmp (v ())
  | 13 ->
    let c = cond_of_code (v ()) in
    let ra = v () in
    let rb = v () in
    Insn.Jcond (c, ra, rb, v ())
  | 14 ->
    let c = cond_of_code (v ()) in
    let ra = v () in
    let imm = v () in
    Insn.Jcond_imm (c, ra, imm, v ())
  | 15 -> let count = v () in Insn.Rep (count, v ())
  | 16 -> Insn.Call (v ())
  | 17 -> let slot = v () in let off = v () in Insn.Call_ml (slot, off, v ())
  | 18 -> let dst = v () in let key = v () in Insn.Vec_ld_ctxt (dst, key, v ())
  | 19 ->
    let dst = v () in
    let slot = v () in
    let rk = v () in
    Insn.Vec_ld_map (dst, slot, rk, v ())
  | 20 -> let off = v () in Insn.Vec_st_reg (off, v ())
  | 21 -> let rd = v () in Insn.Vec_ld_reg (rd, v ())
  | 22 -> let off = v () in Insn.Vec_i2f (off, v ())
  | 23 -> let dst = v () in let cid = v () in Insn.Mat_mul (dst, cid, v ())
  | 24 -> let dst = v () in Insn.Vec_add_const (dst, v ())
  | 25 -> let off = v () in Insn.Vec_relu (off, v ())
  | 26 -> let rd = v () in let off = v () in Insn.Vec_argmax (rd, off, v ())
  | 27 -> Insn.Tail_call (v ())
  | 28 -> Insn.Exit
  | c -> raise (Malformed (Printf.sprintf "bad opcode %d" c))

(* ------------------------------------------------------------------ *)
(* Sections                                                             *)
(* ------------------------------------------------------------------ *)

let map_kind_code = function
  | Map_store.Array_map -> 0
  | Map_store.Hash_map -> 1
  | Map_store.Lru_hash_map -> 2
  | Map_store.Ring_buffer -> 3

let map_kind_of_code = function
  | 0 -> Map_store.Array_map
  | 1 -> Map_store.Hash_map
  | 2 -> Map_store.Lru_hash_map
  | 3 -> Map_store.Ring_buffer
  | c -> raise (Malformed (Printf.sprintf "bad map kind %d" c))

let encode (prog : Program.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  write_string buf prog.name;
  write_varint buf prog.vmem_size;
  write_varint buf prog.n_prog_slots;
  write_varint buf (Array.length prog.consts);
  Array.iter
    (fun (c : Program.const) ->
      write_string buf c.name;
      write_varint buf c.rows;
      write_varint buf c.cols;
      Array.iter (write_varint buf) c.data)
    prog.consts;
  write_varint buf (Array.length prog.map_specs);
  Array.iter
    (fun (spec : Map_store.spec) ->
      Buffer.add_char buf (Char.chr (map_kind_code spec.kind));
      write_varint buf spec.capacity)
    prog.map_specs;
  write_varint buf (Array.length prog.model_arity);
  Array.iter (write_varint buf) prog.model_arity;
  write_varint buf (List.length prog.capabilities);
  List.iter
    (fun cap ->
      match cap with
      | Program.Rate_limited { tokens_per_sec; burst } ->
        Buffer.add_char buf '\000';
        write_varint buf tokens_per_sec;
        write_varint buf burst
      | Program.Guarded { lo; hi } ->
        Buffer.add_char buf '\001';
        write_varint buf lo;
        write_varint buf hi
      | Program.Privacy_budget { epsilon_milli } ->
        Buffer.add_char buf '\002';
        write_varint buf epsilon_milli)
    prog.capabilities;
  write_varint buf (Array.length prog.code);
  Array.iter (write_insn buf) prog.code;
  Buffer.to_bytes buf

let decode data =
  (* Fault seam: wire corruption in flight (DESIGN.md section 12).  The
     image is copied before flipping so callers' buffers stay intact. *)
  let data =
    if Fault.active () && Fault.fire Fault.Encoding_bitflip then begin
      let corrupted = Bytes.copy data in
      Fault.corrupt corrupted;
      corrupted
    end
    else data
  in
  try
    let r = { data; pos = 0 } in
    let m = Bytes.create 4 in
    for i = 0 to 3 do
      Bytes.set m i (Char.chr (read_byte r))
    done;
    if Bytes.to_string m <> magic then raise (Malformed "bad magic");
    let v = read_byte r in
    if v <> version then raise (Malformed (Printf.sprintf "unsupported version %d" v));
    let name = read_string r in
    let vmem_size = read_varint r in
    let n_prog_slots = read_count r ~what:"prog slot" ~max:64 in
    let n_consts = read_count r ~what:"const" ~max:256 in
    let consts =
      List.init n_consts (fun _ ->
          let cname = read_string r in
          let rows = read_count r ~what:"const rows" ~max:4096 in
          let cols = read_count r ~what:"const cols" ~max:4096 in
          if rows * cols > 1 lsl 20 then raise (Malformed "const too large");
          let data = Array.init (rows * cols) (fun _ -> Kml.Fixed.of_raw (read_varint r)) in
          Program.const_matrix ~name:cname ~rows ~cols data)
    in
    let n_maps = read_count r ~what:"map" ~max:64 in
    let map_specs =
      List.init n_maps (fun _ ->
          let kind = map_kind_of_code (read_byte r) in
          let capacity = read_varint r in
          if capacity <= 0 then raise (Malformed "bad map capacity");
          { Map_store.kind; capacity })
    in
    let n_models = read_count r ~what:"model" ~max:64 in
    let model_arity = List.init n_models (fun _ -> read_varint r) in
    let n_caps = read_count r ~what:"capability" ~max:16 in
    let capabilities =
      List.init n_caps (fun _ ->
          match read_byte r with
          | 0 ->
            let tokens_per_sec = read_varint r in
            let burst = read_varint r in
            Program.Rate_limited { tokens_per_sec; burst }
          | 1 ->
            let lo = read_varint r in
            let hi = read_varint r in
            Program.Guarded { lo; hi }
          | 2 -> Program.Privacy_budget { epsilon_milli = read_varint r }
          | c -> raise (Malformed (Printf.sprintf "bad capability tag %d" c)))
    in
    let n_code = read_count r ~what:"instruction" ~max:65536 in
    let code = List.init n_code (fun _ -> read_insn r) in
    if r.pos <> Bytes.length data then raise (Malformed "trailing bytes");
    Ok
      (Program.make ~name ~vmem_size ~consts ~map_specs ~model_arity ~n_prog_slots
         ~capabilities code)
  with
  | Malformed msg -> Error msg
  | Invalid_argument msg -> Error msg
  (* Defence-in-depth: no decode path is known to raise [Failure], but a
     corrupted image must never escape as an exception (decode-fuzz
     audited; see Fuzz.decode_fuzz). *)
  | Failure msg -> Error msg
