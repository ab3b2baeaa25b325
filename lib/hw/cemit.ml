module Z = Polysynth_zint.Zint

module Rng = Polysynth_zint.Xorshift

let emit ?(func_name = "polysynth") ?self_check (n : Netlist.t) =
  let w = n.Netlist.width in
  if w > 64 then invalid_arg "Cemit.emit: width exceeds 64 bits";
  let inputs = Netlist.inputs n in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "#include <stdint.h>\n";
  add "#include <stdio.h>\n\n";
  add "typedef uint64_t word;\n";
  if w = 64 then add "#define POLYSYNTH_MASK UINT64_MAX\n\n"
  else add "#define POLYSYNTH_MASK ((((word)1) << %d) - 1)\n\n" w;
  add "/* %d-bit wrap-around datapath; every operation is reduced mod 2^%d */\n"
    w w;
  (* no netlist name reaches the C text outside a comment or a string
     literal, so none clashes with a keyword, a macro or a name of this
     file *)
  let params =
    List.mapi (Printf.sprintf "word in%d /* %s */") inputs
    @ List.mapi
        (fun i (name, _) -> Printf.sprintf "word *out%d /* %s */" i name)
        n.Netlist.outputs
  in
  add "void %s(%s) {\n" func_name (String.concat ", " params);
  let const_literal c =
    (* constants are emitted reduced into the word range *)
    "UINT64_C(" ^ Z.to_string (Z.erem_pow2 c 64) ^ ")"
  in
  let input_param v =
    Printf.sprintf "in%d" (Option.get (List.find_index (String.equal v) inputs))
  in
  Array.iter
    (fun cell ->
      let open Netlist in
      let arg k = Printf.sprintf "n%d" (List.nth cell.fanin k) in
      let rhs =
        match cell.op with
        | Input v -> input_param v
        | Constant c -> const_literal c
        | Negate -> Printf.sprintf "(word)(-%s)" (arg 0)
        | Add2 -> Printf.sprintf "%s + %s" (arg 0) (arg 1)
        | Sub2 -> Printf.sprintf "%s - %s" (arg 0) (arg 1)
        | Mult2 -> Printf.sprintf "%s * %s" (arg 0) (arg 1)
        | Cmult c -> Printf.sprintf "%s * %s" (const_literal c) (arg 0)
        | Shl k -> Printf.sprintf "%s << %d" (arg 0) k
      in
      add "  word n%d = (%s) & POLYSYNTH_MASK;\n" cell.id rhs)
    n.Netlist.cells;
  List.iteri (fun i (_, id) -> add "  *out%d = n%d;\n" i id) n.Netlist.outputs;
  add "}\n";
  (match self_check with
   | None -> ()
   | Some vectors ->
     let draw = Netlist.draw_inputs (Rng.make 1) n in
     add "\nint main(void) {\n";
     add "  int errors = 0;\n";
     List.iteri (fun i _ -> add "  word out%d;\n" i) n.Netlist.outputs;
     for _ = 1 to vectors do
       let assignment = draw () in
       let expected = Netlist.eval n (fun v -> List.assoc v assignment) in
       let args =
         List.map (fun (_, value) -> "UINT64_C(" ^ Z.to_string value ^ ")")
           assignment
         @ List.mapi (fun i _ -> Printf.sprintf "&out%d" i) n.Netlist.outputs
       in
       add "  %s(%s);\n" func_name (String.concat ", " args);
       List.iteri
         (fun i (name, _) ->
           let value = Z.to_string (List.assoc name expected) in
           add
             "  if (out%d != UINT64_C(%s)) { errors++; printf(\"FAIL %s: got \
              %%llu expected %s\\n\", (unsigned long long)out%d); }\n"
             i value name value i)
         n.Netlist.outputs
     done;
     add "  if (errors == 0) printf(\"PASS\\n\");\n";
     add "  return errors == 0 ? 0 : 1;\n";
     add "}\n");
  Buffer.contents buf
