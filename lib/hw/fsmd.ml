module Z = Polysynth_zint.Zint

type source =
  | From_register of int
  | From_input of string
  | From_constant of Z.t
  | Shifted of int * source
  | Negated of source

type micro_op = {
  step : int;
  op : Netlist.op;
  unit_class : Schedule.unit_class;
  unit_index : int;
  sources : source list;
  dest_register : int;
}

type t = {
  micro_ops : micro_op list;
  num_states : int;
  num_registers : int;
  output_sources : (string * source) list;
  width : int;
}

let build resources (n : Netlist.t) =
  let s = Schedule.list_schedule_exn resources n in
  let b = Bind.bind n s in
  let cells = n.Netlist.cells in
  (* resolve a cell value to a steering expression over registers, inputs
     and constants, folding the free cells combinationally *)
  let rec source_of i =
    let cell = cells.(i) in
    match cell.Netlist.op with
    | Netlist.Input v -> From_input v
    | Netlist.Constant c -> From_constant c
    | Netlist.Shl k -> Shifted (k, source_of (List.hd cell.Netlist.fanin))
    | Netlist.Negate -> Negated (source_of (List.hd cell.Netlist.fanin))
    | Netlist.Mult2 | Netlist.Add2 | Netlist.Sub2 | Netlist.Cmult _ ->
      From_register b.Bind.register_of.(i)
  in
  let micro_ops =
    Array.to_list cells
    |> List.filter_map (fun cell ->
           let i = cell.Netlist.id in
           match Schedule.class_of cell.Netlist.op with
           | Schedule.Free -> None
           | Schedule.Mult_unit | Schedule.Add_unit ->
             let unit_class, unit_index = b.Bind.unit_of.(i) in
             Some
               {
                 step = s.Schedule.start_step.(i);
                 op = cell.Netlist.op;
                 unit_class;
                 unit_index;
                 sources = List.map source_of cell.Netlist.fanin;
                 dest_register = b.Bind.register_of.(i);
               })
    |> List.sort (fun a b -> Stdlib.compare (a.step, a.dest_register) (b.step, b.dest_register))
  in
  {
    micro_ops;
    num_states = Stdlib.max 1 s.Schedule.latency;
    num_registers = b.Bind.num_registers;
    output_sources =
      List.map (fun (name, i) -> (name, source_of i)) n.Netlist.outputs;
    width = n.Netlist.width;
  }

let simulate fsmd env =
  let regs = Array.make (Stdlib.max 1 fsmd.num_registers) Z.zero in
  let clamp v = Z.erem_pow2 v fsmd.width in
  let rec eval_source = function
    | From_register r -> regs.(r)
    | From_input v -> clamp (env v)
    | From_constant c -> clamp c
    | Shifted (k, s) -> clamp (Z.mul (Z.pow2 k) (eval_source s))
    | Negated s -> clamp (Z.neg (eval_source s))
  in
  for state = 0 to fsmd.num_states - 1 do
    (* all reads of this state happen first, then all writes commit at the
       end of the state (non-blocking semantics) *)
    let launched = List.filter (fun m -> m.step = state) fsmd.micro_ops in
    let computed =
      List.map
        (fun m ->
          let a k = eval_source (List.nth m.sources k) in
          let v =
            match m.op with
            | Netlist.Add2 -> Z.add (a 0) (a 1)
            | Netlist.Sub2 -> Z.sub (a 0) (a 1)
            | Netlist.Mult2 -> Z.mul (a 0) (a 1)
            | Netlist.Cmult c -> Z.mul c (a 0)
            | Netlist.Input _ | Netlist.Constant _ | Netlist.Negate
            | Netlist.Shl _ -> assert false
          in
          (m.dest_register, clamp v))
        launched
    in
    List.iter (fun (r, v) -> regs.(r) <- v) computed
  done;
  List.map (fun (name, src) -> (name, eval_source src)) fsmd.output_sources

let rec pp_source ~width buf = function
  | From_register r -> Buffer.add_string buf (Printf.sprintf "regs[%d]" r)
  | From_input v -> Buffer.add_string buf (Verilog.legalize v)
  | From_constant c ->
    Buffer.add_string buf
      (Printf.sprintf "%d'd%s" width (Z.to_string (Z.erem_pow2 c width)))
  | Shifted (k, s) ->
    Buffer.add_string buf "(";
    pp_source ~width buf s;
    Buffer.add_string buf (Printf.sprintf " <<< %d)" k)
  | Negated s ->
    Buffer.add_string buf "(-";
    pp_source ~width buf s;
    Buffer.add_string buf ")"

let to_verilog ?(module_name = "polysynth_fsmd") fsmd =
  let w = fsmd.width in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let inputs =
    let rec collect acc = function
      | From_input v -> if List.mem v acc then acc else v :: acc
      | From_register _ | From_constant _ -> acc
      | Shifted (_, s) | Negated s -> collect acc s
    in
    List.sort_uniq String.compare
      (List.fold_left collect []
         (List.concat_map (fun m -> m.sources) fsmd.micro_ops
         @ List.map snd fsmd.output_sources))
  in
  add "module %s (\n" (Verilog.legalize module_name);
  add "  input  wire clk,\n";
  add "  input  wire rst,\n";
  List.iter
    (fun v -> add "  input  signed [%d:0] %s,\n" (w - 1) (Verilog.legalize v))
    inputs;
  List.iter
    (fun (name, _) ->
      add "  output signed [%d:0] %s,\n" (w - 1) (Verilog.legalize name))
    fsmd.output_sources;
  add "  output wire done_o\n";
  add ");\n";
  let state_bits =
    let rec bits v acc = if v = 0 then Stdlib.max acc 1 else bits (v lsr 1) (acc + 1) in
    bits fsmd.num_states 0
  in
  add "  reg [%d:0] state;\n" (state_bits - 1);
  add "  reg signed [%d:0] regs [0:%d];\n" (w - 1)
    (Stdlib.max 0 (fsmd.num_registers - 1));
  add "  assign done_o = (state == %d'd%d);\n" state_bits fsmd.num_states;
  add "  always @(posedge clk) begin\n";
  add "    if (rst) state <= 0;\n";
  add "    else if (!done_o) begin\n";
  add "      case (state)\n";
  for st = 0 to fsmd.num_states - 1 do
    let ops = List.filter (fun m -> m.step = st) fsmd.micro_ops in
    if ops <> [] then begin
      add "        %d'd%d: begin\n" state_bits st;
      List.iter
        (fun m ->
          let src k =
            let b = Buffer.create 32 in
            pp_source ~width:w b (List.nth m.sources k);
            Buffer.contents b
          in
          let rhs =
            match m.op with
            | Netlist.Add2 -> Printf.sprintf "%s + %s" (src 0) (src 1)
            | Netlist.Sub2 -> Printf.sprintf "%s - %s" (src 0) (src 1)
            | Netlist.Mult2 -> Printf.sprintf "%s * %s" (src 0) (src 1)
            | Netlist.Cmult c ->
              Printf.sprintf "%d'd%s * %s" w
                (Z.to_string (Z.erem_pow2 c w))
                (src 0)
            | Netlist.Input _ | Netlist.Constant _ | Netlist.Negate
            | Netlist.Shl _ -> assert false
          in
          add "          regs[%d] <= %s; // %s unit %d\n" m.dest_register rhs
            (match m.unit_class with
             | Schedule.Mult_unit -> "mult"
             | Schedule.Add_unit | Schedule.Free -> "add")
            m.unit_index)
        ops;
      add "        end\n"
    end
  done;
  add "        default: ;\n";
  add "      endcase\n";
  add "      state <= state + 1;\n";
  add "    end\n";
  add "  end\n";
  List.iter
    (fun (name, srcv) ->
      let b = Buffer.create 32 in
      pp_source ~width:w b srcv;
      add "  assign %s = %s;\n" (Verilog.legalize name) (Buffer.contents b))
    fsmd.output_sources;
  add "endmodule\n";
  Buffer.contents buf
