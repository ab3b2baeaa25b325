(* Generic forward abstract interpretation over the netlist DAG.

   The [cells] array of a netlist is topologically ordered (fanin ids
   precede their users), so one pass in array order computes every cell's
   fact from facts that are already final: no worklist, no re-visits and
   no join with a previous fact.  A cell whose fanin is not an earlier
   cell (a malformed netlist, which Wellformed rejects before the suite
   runs any analysis) stays at bottom. *)

module Netlist = Polysynth_hw.Netlist

module Make (D : Domains.DOMAIN) = struct
  type fact = D.t

  let transfer ~width (facts : D.t array) (cell : Netlist.cell) =
    let arg k = facts.(List.nth cell.fanin k) in
    match cell.op with
    | Netlist.Input v -> D.input ~width v
    | Netlist.Constant c -> D.const ~width c
    | Netlist.Negate -> D.neg ~width (arg 0)
    | Netlist.Add2 -> D.add ~width (arg 0) (arg 1)
    | Netlist.Sub2 -> D.sub ~width (arg 0) (arg 1)
    | Netlist.Mult2 -> D.mul ~width (arg 0) (arg 1)
    | Netlist.Cmult c -> D.cmul ~width c (arg 0)
    | Netlist.Shl k -> D.shl ~width k (arg 0)

  let analyze (n : Netlist.t) =
    let width = n.Netlist.width in
    let facts = Array.make (Array.length n.Netlist.cells) D.bottom in
    Array.iteri
      (fun i (cell : Netlist.cell) ->
        if List.for_all (fun s -> s >= 0 && s < i) cell.fanin then
          facts.(i) <- transfer ~width facts cell)
      n.Netlist.cells;
    facts

  let to_strings (n : Netlist.t) facts =
    Array.to_list
      (Array.mapi
         (fun i (c : Netlist.cell) ->
           Printf.sprintf "c%-4d %-18s %s" i (Netlist.op_to_string c.op)
             (D.to_string facts.(i)))
         n.Netlist.cells)
end

module Product_analysis = Make (Domains.Product)

let analyze_product = Product_analysis.analyze
