(* Generic forward abstract interpretation over the netlist DAG.

   The [cells] array of a netlist is topologically ordered (fanin ids
   precede their users), so one pass in array order computes every cell's
   fact from facts that are already final: no worklist, no re-visits and
   no join with a previous fact.  A cell whose fanin is not an earlier
   cell (a malformed netlist, which Wellformed rejects before the suite
   runs any analysis) stays at bottom. *)

module Z = Polysynth_zint.Zint
module Netlist = Polysynth_hw.Netlist

module Make (D : Domains.DOMAIN) = struct
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
end

module Constants = Make (Domains.Const)

let constants = Constants.analyze

(* perfbench's replay is the only user of this alias; the benchmark change
   that updates the replay (ROADMAP items 1 and 2) deletes it *)
let analyze_product = constants

let to_strings (n : Netlist.t) =
  let module Intervals = Make (Domains.Int_interval) in
  let ranges = Intervals.analyze n and consts = constants n in
  Array.to_list
    (Array.mapi
       (fun i (c : Netlist.cell) ->
         let range =
           match Domains.Int_interval.range ranges.(i) with
           | Some (lo, hi) ->
             Printf.sprintf "[%s, %s]" (Z.to_string lo) (Z.to_string hi)
           | None -> "bot"
         in
         Printf.sprintf "c%-4d %-18s %-28s %s" i (Netlist.op_to_string c.op)
           range
           (Domains.Const.to_string consts.(i)))
       n.Netlist.cells)
