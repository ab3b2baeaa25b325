module Z = Polysynth_zint.Zint

let legalize name =
  let buf = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char buf c
      | '0' .. '9' ->
        if i = 0 then Buffer.add_char buf '_';
        Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  if Buffer.length buf = 0 then "_" else Buffer.contents buf

let emit ?(module_name = "polysynth") (n : Netlist.t) =
  let open Netlist in
  let m = n.width in
  let buf = Buffer.create 1024 in
  let inputs = Netlist.inputs n in
  let out_names = List.map (fun (name, _) -> legalize name) n.outputs in
  Buffer.add_string buf (Printf.sprintf "module %s (\n" (legalize module_name));
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  input  signed [%d:0] %s,\n" (m - 1) (legalize v)))
    inputs;
  List.iteri
    (fun i name ->
      Buffer.add_string buf
        (Printf.sprintf "  output signed [%d:0] %s%s\n" (m - 1) name
           (if i = List.length out_names - 1 then "" else ",")))
    out_names;
  Buffer.add_string buf ");\n";
  let prefix =
    Netlist.fresh_prefix (List.map legalize inputs @ out_names) "n"
  in
  let wire id = Printf.sprintf "%s%d" prefix id in
  Array.iter
    (fun cell ->
      let arg k = wire (List.nth cell.fanin k) in
      let rhs =
        match cell.op with
        | Input v -> legalize v
        | Constant c ->
          let v = Z.erem_pow2 c m in
          Printf.sprintf "%d'd%s" m (Z.to_string v)
        | Negate -> Printf.sprintf "-%s" (arg 0)
        | Add2 -> Printf.sprintf "%s + %s" (arg 0) (arg 1)
        | Sub2 -> Printf.sprintf "%s - %s" (arg 0) (arg 1)
        | Mult2 -> Printf.sprintf "%s * %s" (arg 0) (arg 1)
        | Cmult c ->
          let v = Z.erem_pow2 c m in
          Printf.sprintf "%d'd%s * %s" m (Z.to_string v) (arg 0)
        | Shl k -> Printf.sprintf "%s <<< %d" (arg 0) k
      in
      Buffer.add_string buf
        (Printf.sprintf "  wire signed [%d:0] %s = %s;\n" (m - 1) (wire cell.id)
           rhs))
    n.cells;
  List.iter2
    (fun (_, id) name ->
      Buffer.add_string buf (Printf.sprintf "  assign %s = %s;\n" name (wire id)))
    n.outputs out_names;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
