module Z = Polysynth_zint.Zint

let of_netlist (n : Netlist.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph polysynth {\n";
  Buffer.add_string buf "  rankdir=BT;\n";
  let output_names id =
    List.filter_map
      (fun (name, oid) -> if oid = id then Some name else None)
      n.Netlist.outputs
  in
  Array.iter
    (fun cell ->
      let open Netlist in
      let label, shape =
        match cell.op with
        | Input v -> (v, "plaintext")
        | Constant c -> (Z.to_string c, "plaintext")
        | Negate -> ("-", "circle")
        | Add2 -> ("+", "circle")
        | Sub2 -> ("\xe2\x88\x92", "circle")
        | Mult2 -> ("*", "box")
        | Cmult c -> ("*" ^ Z.to_string c, "box")
        | Shl k -> ("<<" ^ string_of_int k, "plaintext")
      in
      let outs = output_names cell.id in
      let label =
        match outs with
        | [] -> label
        | names -> label ^ "\\n[" ^ String.concat "," names ^ "]"
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" cell.id label shape);
      List.iter
        (fun src ->
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" src cell.id))
        cell.fanin)
    n.Netlist.cells;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
