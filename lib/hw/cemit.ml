module Z = Polysynth_zint.Zint

module Rng = Polysynth_zint.Xorshift

let emit ?(func_name = "polysynth") ?self_check (n : Netlist.t) =
  let w = n.Netlist.width in
  if w > 64 then invalid_arg "Cemit.emit: width exceeds 64 bits";
  let fname = Verilog.legalize func_name in
  let inputs = List.map Verilog.legalize (Netlist.inputs n) in
  let outputs =
    List.map (fun (name, _) -> Verilog.legalize name) n.Netlist.outputs
  in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "#include <stdint.h>\n";
  add "#include <stdio.h>\n\n";
  add "typedef uint64_t word;\n";
  if w = 64 then add "#define POLYSYNTH_MASK UINT64_MAX\n\n"
  else add "#define POLYSYNTH_MASK ((((word)1) << %d) - 1)\n\n" w;
  add "/* %d-bit wrap-around datapath; every operation is reduced mod 2^%d */\n"
    w w;
  let params =
    List.map (Printf.sprintf "word %s") inputs
    @ List.map (Printf.sprintf "word *%s") outputs
  in
  add "void %s(%s) {\n" fname (String.concat ", " params);
  let prefix = Netlist.fresh_prefix (inputs @ outputs) "n" in
  let wire i = Printf.sprintf "%s%d" prefix i in
  let const_literal c =
    (* constants are emitted reduced into the word range *)
    "UINT64_C(" ^ Z.to_string (Z.erem_pow2 c 64) ^ ")"
  in
  Array.iter
    (fun cell ->
      let open Netlist in
      let arg k = wire (List.nth cell.fanin k) in
      let rhs =
        match cell.op with
        | Input v -> Verilog.legalize v
        | Constant c -> const_literal c
        | Negate -> Printf.sprintf "(word)(-%s)" (arg 0)
        | Add2 -> Printf.sprintf "%s + %s" (arg 0) (arg 1)
        | Sub2 -> Printf.sprintf "%s - %s" (arg 0) (arg 1)
        | Mult2 -> Printf.sprintf "%s * %s" (arg 0) (arg 1)
        | Cmult c -> Printf.sprintf "%s * %s" (const_literal c) (arg 0)
        | Shl k -> Printf.sprintf "%s << %d" (arg 0) k
      in
      add "  word %s = (%s) & POLYSYNTH_MASK;\n" (wire cell.id) rhs)
    n.Netlist.cells;
  List.iter
    (fun (name, id) -> add "  *%s = %s;\n" (Verilog.legalize name) (wire id))
    n.Netlist.outputs;
  add "}\n";
  (match self_check with
   | None -> ()
   | Some vectors ->
     let draw = Netlist.draw_inputs (Rng.make 1) n in
     let errors = Netlist.fresh_prefix outputs "errors" in
     add "\nint main(void) {\n";
     add "  int %s = 0;\n" errors;
     List.iter (add "  word %s;\n") outputs;
     for _ = 1 to vectors do
       let assignment = draw () in
       let expected = Netlist.eval n (fun v -> List.assoc v assignment) in
       let args =
         List.map (fun (_, value) -> "UINT64_C(" ^ Z.to_string value ^ ")")
           assignment
         @ List.map (fun o -> "&" ^ o) outputs
       in
       add "  %s(%s);\n" fname (String.concat ", " args);
       List.iter2
         (fun (name, _) o ->
           let value = Z.to_string (List.assoc name expected) in
           add
             "  if (%s != UINT64_C(%s)) { %s++; printf(\"FAIL %s: got \
              %%llu expected %s\\n\", (unsigned long long)%s); }\n"
             o value errors o value o)
         n.Netlist.outputs outputs
     done;
     add "  if (%s == 0) printf(\"PASS\\n\");\n" errors;
     add "  return %s == 0 ? 0 : 1;\n" errors;
     add "}\n");
  Buffer.contents buf
