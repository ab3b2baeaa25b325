module Z = Polysynth_zint.Zint

let states (b : Bind.binding) =
  let s = b.Bind.schedule in
  let states = Array.make (Stdlib.max 1 s.Schedule.latency) [] in
  Array.iter
    (fun (c : Netlist.cell) ->
      match Schedule.class_of c.Netlist.op with
      | Schedule.Free -> ()
      | Schedule.Mult_unit | Schedule.Add_unit ->
        let t = s.Schedule.start_step.(c.Netlist.id) in
        states.(t) <- c :: states.(t))
    b.Bind.netlist.Netlist.cells;
  let register (c : Netlist.cell) = b.Bind.register_of.(c.Netlist.id) in
  Array.map
    (List.sort (fun c d -> Int.compare (register c) (register d)))
    states

(* [steer b ... i] is cell [i]'s value as a unit reads it: a unit result
   from its register, the free cells folded in combinationally *)
let steer (b : Bind.binding) ~register ~input ~constant ~shift ~negate =
  let cells = b.Bind.netlist.Netlist.cells in
  let rec go i =
    let c = cells.(i) in
    match c.Netlist.op with
    | Netlist.Input v -> input v
    | Netlist.Constant k -> constant k
    | Netlist.Shl k -> shift k (go (List.hd c.Netlist.fanin))
    | Netlist.Negate -> negate (go (List.hd c.Netlist.fanin))
    | Netlist.Mult2 | Netlist.Add2 | Netlist.Sub2 | Netlist.Cmult _ ->
      register b.Bind.register_of.(i)
  in
  go

let simulate (b : Bind.binding) env =
  let n = b.Bind.netlist in
  let regs = Array.make (Stdlib.max 1 b.Bind.num_registers) Z.zero in
  let clamp v = Z.erem_pow2 v n.Netlist.width in
  let read =
    steer b
      ~register:(fun r -> regs.(r))
      ~input:(fun v -> clamp (env v))
      ~constant:clamp
      ~shift:(fun k v -> clamp (Z.mul (Z.pow2 k) v))
      ~negate:(fun v -> clamp (Z.neg v))
  in
  Array.iter
    (fun launched ->
      (* all reads of this state happen first, then all writes commit at
         the end of the state (non-blocking semantics) *)
      let computed =
        List.map
          (fun (c : Netlist.cell) ->
            let v =
              match (c.Netlist.op, List.map read c.Netlist.fanin) with
              | Netlist.Add2, [ x; y ] -> Z.add x y
              | Netlist.Sub2, [ x; y ] -> Z.sub x y
              | Netlist.Mult2, [ x; y ] -> Z.mul x y
              | Netlist.Cmult k, [ x ] -> Z.mul k x
              | _ -> assert false
            in
            (b.Bind.register_of.(c.Netlist.id), clamp v))
          launched
      in
      List.iter (fun (r, v) -> regs.(r) <- v) computed)
    (states b);
  List.map (fun (name, i) -> (name, read i)) n.Netlist.outputs

let to_verilog ?(module_name = "polysynth_fsmd") (b : Bind.binding) =
  let n = b.Bind.netlist in
  let w = n.Netlist.width in
  let states = states b in
  let num_states = Array.length states in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let word c = Printf.sprintf "%d'd%s" w (Z.to_string (Z.erem_pow2 c w)) in
  let fresh =
    Netlist.fresh_prefix (Netlist.inputs n @ List.map fst n.Netlist.outputs)
  in
  let clk = fresh "clk" and rst = fresh "rst" and done_o = fresh "done_o" in
  let state = fresh "state" and regs = fresh "regs" in
  let operand =
    steer b
      ~register:(Printf.sprintf "%s[%d]" regs)
      ~input:Fun.id
      ~constant:word
      ~shift:(fun k s -> Printf.sprintf "(%s <<< %d)" s k)
      ~negate:(Printf.sprintf "(-%s)")
  in
  add "module %s (\n" module_name;
  add "  input  wire %s,\n" clk;
  add "  input  wire %s,\n" rst;
  List.iter
    (fun v -> add "  input  signed [%d:0] %s,\n" (w - 1) v)
    (Netlist.inputs n);
  List.iter
    (fun (name, _) -> add "  output signed [%d:0] %s,\n" (w - 1) name)
    n.Netlist.outputs;
  add "  output wire %s\n" done_o;
  add ");\n";
  let state_bits =
    let rec bits v acc = if v = 0 then Stdlib.max acc 1 else bits (v lsr 1) (acc + 1) in
    bits num_states 0
  in
  add "  reg [%d:0] %s;\n" (state_bits - 1) state;
  add "  reg signed [%d:0] %s [0:%d];\n" (w - 1) regs
    (Stdlib.max 0 (b.Bind.num_registers - 1));
  add "  assign %s = (%s == %d'd%d);\n" done_o state state_bits num_states;
  add "  always @(posedge %s) begin\n" clk;
  add "    if (%s) %s <= 0;\n" rst state;
  add "    else if (!%s) begin\n" done_o;
  add "      case (%s)\n" state;
  Array.iteri
    (fun st launched ->
      if launched <> [] then begin
        add "        %d'd%d: begin\n" state_bits st;
        List.iter
          (fun (c : Netlist.cell) ->
            let rhs =
              match (c.Netlist.op, List.map operand c.Netlist.fanin) with
              | Netlist.Add2, [ x; y ] -> Printf.sprintf "%s + %s" x y
              | Netlist.Sub2, [ x; y ] -> Printf.sprintf "%s - %s" x y
              | Netlist.Mult2, [ x; y ] -> Printf.sprintf "%s * %s" x y
              | Netlist.Cmult k, [ x ] -> Printf.sprintf "%s * %s" (word k) x
              | _ -> assert false
            in
            let cls, index = b.Bind.unit_of.(c.Netlist.id) in
            add "          %s[%d] <= %s; // %s unit %d\n" regs
              b.Bind.register_of.(c.Netlist.id) rhs
              (match cls with
               | Schedule.Mult_unit -> "mult"
               | Schedule.Add_unit | Schedule.Free -> "add")
              index)
          launched;
        add "        end\n"
      end)
    states;
  add "        default: ;\n";
  add "      endcase\n";
  add "      %s <= %s + 1;\n" state state;
  add "    end\n";
  add "  end\n";
  List.iter
    (fun (name, i) -> add "  assign %s = %s;\n" name (operand i))
    n.Netlist.outputs;
  add "endmodule\n";
  Buffer.contents buf
