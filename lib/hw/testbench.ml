module Z = Polysynth_zint.Zint

module Rng = Polysynth_zint.Xorshift

let emit ?(module_name = "polysynth") ?(vectors = 16) (n : Netlist.t) =
  let w = n.Netlist.width in
  let draw = Netlist.draw_inputs (Rng.make 1) n in
  let inputs = Netlist.inputs n in
  let outputs = List.map fst n.Netlist.outputs in
  let fresh = Netlist.fresh_prefix (inputs @ outputs) in
  let errors = fresh "errors" and dut = fresh "dut" in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "`timescale 1ns/1ps\n";
  add "module %s_tb;\n" module_name;
  List.iter (fun v -> add "  reg  signed [%d:0] %s;\n" (w - 1) v) inputs;
  List.iter (fun o -> add "  wire signed [%d:0] %s;\n" (w - 1) o) outputs;
  add "  integer %s = 0;\n" errors;
  add "  %s %s (%s);\n" module_name dut
    (String.concat ", "
       (List.map (fun p -> Printf.sprintf ".%s(%s)" p p) (inputs @ outputs)));
  add "  initial begin\n";
  for _ = 1 to vectors do
    let assignment = draw () in
    List.iter
      (fun (v, value) -> add "    %s = %d'd%s;\n" v w (Z.to_string value))
      assignment;
    add "    #1;\n";
    let expected = Netlist.eval n (fun v -> List.assoc v assignment) in
    List.iter
      (fun (name, _) ->
        let value = List.assoc name expected in
        add
          "    if (%s !== %d'd%s) begin %s = %s + 1; $display(\"FAIL \
           %s: got %%0d expected %s\", %s); end\n"
          name w (Z.to_string value) errors errors name (Z.to_string value)
          name)
      n.Netlist.outputs
  done;
  add "    if (%s == 0) $display(\"PASS: all %d vectors\");\n" errors vectors;
  add "    else $display(\"FAIL: %%0d mismatches\", %s);\n" errors;
  add "    $finish;\n";
  add "  end\n";
  add "endmodule\n";
  Buffer.contents buf
