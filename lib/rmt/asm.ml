type error = { line : int; message : string }

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

exception Err of error

let err line message = raise (Err { line; message })

(* ------------------------------------------------------------------ *)
(* Lexing: one instruction or directive per line, ';' comments.        *)
(* ------------------------------------------------------------------ *)

let strip_comment s =
  match String.index_opt s ';' with Some i -> String.sub s 0 i | None -> s

let tokenize s =
  let buf = Buffer.create 16 in
  let tokens = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | ',' | '[' | ']' | '(' | ')' -> flush ()
      | _ -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !tokens

let parse_int line s =
  match int_of_string_opt s with Some v -> v | None -> err line ("expected integer, got " ^ s)

let parse_float line s =
  match float_of_string_opt s with Some v -> v | None -> err line ("expected number, got " ^ s)

let parse_prefixed line prefix s =
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    parse_int line (String.sub s pl (String.length s - pl))
  else err line (Printf.sprintf "expected %s<n>, got %s" prefix s)

let reg line s =
  let r = parse_prefixed line "r" s in
  if r < 0 || r >= Insn.n_registers then err line ("register out of range: " ^ s);
  r

let map_slot line s = parse_prefixed line "map" s
let model_slot line s = parse_prefixed line "model" s
let const_id line s = parse_prefixed line "const" s
let prog_slot line s = parse_prefixed line "prog" s

let alu_of_name = function
  | "add" -> Some Insn.Add | "sub" -> Some Insn.Sub | "mul" -> Some Insn.Mul
  | "div" -> Some Insn.Div | "mod" -> Some Insn.Mod | "and" -> Some Insn.And
  | "or" -> Some Insn.Or | "xor" -> Some Insn.Xor | "shl" -> Some Insn.Shl
  | "shr" -> Some Insn.Shr | "min" -> Some Insn.Min | "max" -> Some Insn.Max
  | _ -> None

let cond_of_name = function
  | "eq" -> Some Insn.Eq | "ne" -> Some Insn.Ne | "lt" -> Some Insn.Lt
  | "le" -> Some Insn.Le | "gt" -> Some Insn.Gt | "ge" -> Some Insn.Ge
  | _ -> None

(* A jump target is either "+N" (relative) or a label name, resolved in the
   second pass. *)
type target = Rel of int | Label of string

let parse_target line s =
  if String.length s > 1 && s.[0] = '+' then
    Rel (parse_int line (String.sub s 1 (String.length s - 1)))
  else Label s

type pre_insn =
  | Done of Insn.t
  | Pjmp of target
  | Pjcond of Insn.cond * int * int * target
  | Pjcond_imm of Insn.cond * int * int * target

type decl_state = {
  mutable name : string;
  mutable vmem : int;
  mutable consts : Program.const list;
  mutable maps : Map_store.spec list;
  mutable models : int list;
  mutable prog_slots : int;
  mutable caps : Program.capability list;
}

let parse_directive st line tokens =
  match tokens with
  | [ ".name"; n ] -> st.name <- n
  | [ ".vmem"; n ] -> st.vmem <- parse_int line n
  | [ ".map"; kind; cap ] ->
    let kind =
      match kind with
      | "array" -> Map_store.Array_map
      | "hash" -> Map_store.Hash_map
      | "lru" -> Map_store.Lru_hash_map
      | "ring" -> Map_store.Ring_buffer
      | other -> err line ("unknown map kind: " ^ other)
    in
    st.maps <- { Map_store.kind; capacity = parse_int line cap } :: st.maps
  | [ ".model"; n ] -> st.models <- parse_int line n :: st.models
  | ".const" :: cname :: rows :: cols :: values ->
    let rows = parse_int line rows and cols = parse_int line cols in
    let data = Array.of_list (List.map (fun v -> Kml.Fixed.of_float (parse_float line v)) values) in
    if Array.length data <> rows * cols then err line "const: data length <> rows * cols";
    st.consts <- Program.const_matrix ~name:cname ~rows ~cols data :: st.consts
  | [ ".progslot" ] -> st.prog_slots <- st.prog_slots + 1
  | [ ".cap"; "rate"; tps; burst ] ->
    st.caps <-
      Program.Rate_limited
        { tokens_per_sec = parse_int line tps; burst = parse_int line burst }
      :: st.caps
  | [ ".cap"; "guard"; lo; hi ] ->
    st.caps <- Program.Guarded { lo = parse_int line lo; hi = parse_int line hi } :: st.caps
  | [ ".cap"; "privacy"; milli ] ->
    st.caps <- Program.Privacy_budget { epsilon_milli = parse_int line milli } :: st.caps
  | d :: _ -> err line ("unknown directive: " ^ d)
  | [] -> ()

let parse_insn helpers line tokens =
  let module I = Insn in
  let r = reg line and i = parse_int line in
  match tokens with
  | [ "ldimm"; rd; imm ] -> Done (I.Ld_imm (r rd, i imm))
  | [ "mov"; rd; rs ] -> Done (I.Mov (r rd, r rs))
  | [ "ldctxt"; rd; rk ] -> Done (I.Ld_ctxt (r rd, r rk))
  | [ "ldctxtk"; rd; key ] -> Done (I.Ld_ctxt_k (r rd, i key))
  | [ "stctxt"; key; rs ] -> Done (I.St_ctxt (i key, r rs))
  | [ "stctxtr"; rk; rs ] -> Done (I.St_ctxt_r (r rk, r rs))
  | [ "mlookup"; rd; m; rk ] -> Done (I.Map_lookup (r rd, map_slot line m, r rk))
  | [ "mupdate"; m; rk; rv ] -> Done (I.Map_update (map_slot line m, r rk, r rv))
  | [ "mdelete"; m; rk ] -> Done (I.Map_delete (map_slot line m, r rk))
  | [ "rpush"; m; rv ] -> Done (I.Ring_push (map_slot line m, r rv))
  | [ "jmp"; t ] -> Pjmp (parse_target line t)
  | [ "rep"; count; body ] -> Done (I.Rep (i count, i body))
  | [ "call"; id ] ->
    let hid =
      match int_of_string_opt id with
      | Some n -> n
      | None ->
        (match Helper.id_of_name helpers id with
         | Some n -> n
         | None -> err line ("unknown helper: " ^ id))
    in
    Done (I.Call hid)
  | [ "callml"; m; off; len ] -> Done (I.Call_ml (model_slot line m, i off, i len))
  | [ "vldctxt"; dst; key; len ] -> Done (I.Vec_ld_ctxt (i dst, i key, i len))
  | [ "vldmap"; dst; m; rk; len ] -> Done (I.Vec_ld_map (i dst, map_slot line m, r rk, i len))
  | [ "vst"; off; rs ] -> Done (I.Vec_st_reg (i off, r rs))
  | [ "vld"; rd; off ] -> Done (I.Vec_ld_reg (r rd, i off))
  | [ "vi2f"; off; len ] -> Done (I.Vec_i2f (i off, i len))
  | [ "matmul"; dst; c; src ] -> Done (I.Mat_mul (i dst, const_id line c, i src))
  | [ "vaddc"; dst; c ] -> Done (I.Vec_add_const (i dst, const_id line c))
  | [ "vrelu"; off; len ] -> Done (I.Vec_relu (i off, i len))
  | [ "vargmax"; rd; off; len ] -> Done (I.Vec_argmax (r rd, i off, i len))
  | [ "tailcall"; p ] -> Done (I.Tail_call (prog_slot line p))
  | [ "exit" ] -> Done I.Exit
  | [ op; rd; rhs ] ->
    (* ALU forms: "<op> rd rs" and "<op>i rd imm". *)
    let imm_form = String.length op > 1 && op.[String.length op - 1] = 'i' in
    let base = if imm_form then String.sub op 0 (String.length op - 1) else op in
    (match alu_of_name base with
     | Some alu ->
       if imm_form then Done (I.Alu_imm (alu, r rd, i rhs))
       else Done (I.Alu (alu, r rd, r rhs))
     | None -> err line ("unknown instruction: " ^ op))
  | [ op; ra; b; t ] when String.length op > 1 && op.[0] = 'j' ->
    let rest = String.sub op 1 (String.length op - 1) in
    let imm_form = String.length rest > 1 && rest.[String.length rest - 1] = 'i' in
    let cname = if imm_form then String.sub rest 0 (String.length rest - 1) else rest in
    (match cond_of_name cname with
     | Some c when imm_form -> Pjcond_imm (c, r ra, i b, parse_target line t)
     | Some c -> Pjcond (c, r ra, r b, parse_target line t)
     | None -> err line ("unknown branch: " ^ op))
  | tok :: _ -> err line ("cannot parse instruction: " ^ tok)
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Two-pass parse driver.                                              *)
(* ------------------------------------------------------------------ *)

let is_label_line tokens =
  match tokens with
  | [ tok ] -> String.length tok > 1 && tok.[String.length tok - 1] = ':'
  | _ -> false

let parse ?(helpers = Helper.with_defaults ()) source =
  let st =
    { name = "anonymous";
      vmem = 64;
      consts = [];
      maps = [];
      models = [];
      prog_slots = 0;
      caps = [] }
  in
  try
    let lines = String.split_on_char '\n' source in
    let labels = Hashtbl.create 16 in
    (* Pass 1: label addresses and declarations. *)
    let pc = ref 0 in
    List.iteri
      (fun idx raw ->
        let line = idx + 1 in
        let tokens = tokenize (strip_comment raw) in
        match tokens with
        | [] -> ()
        | tok :: _ when tok.[0] = '.' -> parse_directive st line tokens
        | _ when is_label_line tokens ->
          let tok = List.hd tokens in
          let name = String.sub tok 0 (String.length tok - 1) in
          if Hashtbl.mem labels name then err line ("duplicate label: " ^ name);
          Hashtbl.replace labels name !pc
        | _ -> incr pc)
      lines;
    (* Pass 2: assemble. *)
    let resolve line pc target =
      match target with
      | Rel off -> off
      | Label name ->
        (match Hashtbl.find_opt labels name with
         | Some addr ->
           let off = addr - pc - 1 in
           if off < 0 then err line ("backward label: " ^ name);
           off
         | None -> err line ("unknown label: " ^ name))
    in
    let code = ref [] in
    let pc = ref 0 in
    List.iteri
      (fun idx raw ->
        let line = idx + 1 in
        let tokens = tokenize (strip_comment raw) in
        match tokens with
        | [] -> ()
        | tok :: _ when tok.[0] = '.' -> ()
        | _ when is_label_line tokens -> ()
        | _ ->
          let insn =
            match parse_insn helpers line tokens with
            | Done insn -> insn
            | Pjmp t -> Insn.Jmp (resolve line !pc t)
            | Pjcond (c, ra, rb, t) -> Insn.Jcond (c, ra, rb, resolve line !pc t)
            | Pjcond_imm (c, ra, imm, t) -> Insn.Jcond_imm (c, ra, imm, resolve line !pc t)
          in
          code := insn :: !code;
          incr pc)
      lines;
    Ok
      (Program.make ~name:st.name ~vmem_size:st.vmem ~consts:(List.rev st.consts)
         ~map_specs:(List.rev st.maps)
         ~model_arity:(List.rev st.models)
         ~n_prog_slots:st.prog_slots
         ~capabilities:(List.rev st.caps)
         (List.rev !code))
  with Err e -> Error e

let parse_exn source =
  match parse source with
  | Ok prog -> prog
  | Error e -> failwith (Format.asprintf "%a" pp_error e)

(* ------------------------------------------------------------------ *)
(* Printer (parseable by [parse]).                                     *)
(* ------------------------------------------------------------------ *)

let print (prog : Program.t) =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf ".name %s\n" prog.name;
  pf ".vmem %d\n" prog.vmem_size;
  Array.iter
    (fun (spec : Map_store.spec) ->
      let kind =
        match spec.kind with
        | Map_store.Array_map -> "array"
        | Map_store.Hash_map -> "hash"
        | Map_store.Lru_hash_map -> "lru"
        | Map_store.Ring_buffer -> "ring"
      in
      pf ".map %s %d\n" kind spec.capacity)
    prog.map_specs;
  Array.iter (fun arity -> pf ".model %d\n" arity) prog.model_arity;
  Array.iter
    (fun (c : Program.const) ->
      pf ".const %s %d %d" c.name c.rows c.cols;
      Array.iter (fun raw -> pf " %.10f" (Kml.Fixed.to_float (Kml.Fixed.of_raw raw))) c.data;
      pf "\n")
    prog.consts;
  for _ = 1 to prog.n_prog_slots do
    pf ".progslot\n"
  done;
  List.iter
    (fun cap ->
      match cap with
      | Program.Rate_limited { tokens_per_sec; burst } -> pf ".cap rate %d %d\n" tokens_per_sec burst
      | Program.Guarded { lo; hi } -> pf ".cap guard %d %d\n" lo hi
      | Program.Privacy_budget { epsilon_milli } -> pf ".cap privacy %d\n" epsilon_milli)
    prog.capabilities;
  (* Collect branch targets so we can emit labels. *)
  let targets = Hashtbl.create 16 in
  Array.iteri
    (fun pc insn ->
      match insn with
      | Insn.Jmp off | Insn.Jcond (_, _, _, off) | Insn.Jcond_imm (_, _, _, off) ->
        Hashtbl.replace targets (pc + 1 + off) ()
      | _ -> ())
    prog.code;
  let label_of pc = Printf.sprintf "L%d" pc in
  let module I = Insn in
  Array.iteri
    (fun pc insn ->
      if Hashtbl.mem targets pc then pf "%s:\n" (label_of pc);
      let line =
        match insn with
        | I.Ld_imm (rd, imm) -> Printf.sprintf "ldimm r%d, %d" rd imm
        | I.Mov (rd, rs) -> Printf.sprintf "mov r%d, r%d" rd rs
        | I.Alu (op, rd, rs) -> Printf.sprintf "%s r%d, r%d" (I.alu_name op) rd rs
        | I.Alu_imm (op, rd, imm) -> Printf.sprintf "%si r%d, %d" (I.alu_name op) rd imm
        | I.Ld_ctxt (rd, rk) -> Printf.sprintf "ldctxt r%d, r%d" rd rk
        | I.Ld_ctxt_k (rd, key) -> Printf.sprintf "ldctxtk r%d, %d" rd key
        | I.St_ctxt (key, rs) -> Printf.sprintf "stctxt %d, r%d" key rs
        | I.St_ctxt_r (rk, rs) -> Printf.sprintf "stctxtr r%d, r%d" rk rs
        | I.Map_lookup (rd, slot, rk) -> Printf.sprintf "mlookup r%d, map%d, r%d" rd slot rk
        | I.Map_update (slot, rk, rv) -> Printf.sprintf "mupdate map%d, r%d, r%d" slot rk rv
        | I.Map_delete (slot, rk) -> Printf.sprintf "mdelete map%d, r%d" slot rk
        | I.Ring_push (slot, rv) -> Printf.sprintf "rpush map%d, r%d" slot rv
        | I.Jmp off -> Printf.sprintf "jmp %s" (label_of (pc + 1 + off))
        | I.Jcond (c, ra, rb, off) ->
          Printf.sprintf "j%s r%d, r%d, %s" (I.cond_name c) ra rb (label_of (pc + 1 + off))
        | I.Jcond_imm (c, ra, imm, off) ->
          Printf.sprintf "j%si r%d, %d, %s" (I.cond_name c) ra imm (label_of (pc + 1 + off))
        | I.Rep (count, body) -> Printf.sprintf "rep %d, %d" count body
        | I.Call id -> Printf.sprintf "call %d" id
        | I.Call_ml (slot, off, len) -> Printf.sprintf "callml model%d, %d, %d" slot off len
        | I.Vec_ld_ctxt (dst, key, len) -> Printf.sprintf "vldctxt %d, %d, %d" dst key len
        | I.Vec_ld_map (dst, slot, rk, len) ->
          Printf.sprintf "vldmap %d, map%d, r%d, %d" dst slot rk len
        | I.Vec_st_reg (off, rs) -> Printf.sprintf "vst %d, r%d" off rs
        | I.Vec_ld_reg (rd, off) -> Printf.sprintf "vld r%d, %d" rd off
        | I.Vec_i2f (off, len) -> Printf.sprintf "vi2f %d, %d" off len
        | I.Mat_mul (dst, cid, src) -> Printf.sprintf "matmul %d, const%d, %d" dst cid src
        | I.Vec_add_const (dst, cid) -> Printf.sprintf "vaddc %d, const%d" dst cid
        | I.Vec_relu (off, len) -> Printf.sprintf "vrelu %d, %d" off len
        | I.Vec_argmax (rd, off, len) -> Printf.sprintf "vargmax r%d, %d, %d" rd off len
        | I.Tail_call slot -> Printf.sprintf "tailcall prog%d" slot
        | I.Exit -> "exit"
      in
      pf "  %s\n" line)
    prog.code;
  Buffer.contents buf
