module Z = Polysynth_zint.Zint
module Netlist = Polysynth_hw.Netlist
module Int_interval = Domains.Int_interval
module Const = Domains.Const

let intervals (n : Netlist.t) =
  Netlist.interpret n (Z.zero, Z.zero)
    (Int_interval.transfer ~width:n.Netlist.width)

let constants (n : Netlist.t) =
  Netlist.interpret n
    (Const.top ~width:n.Netlist.width)
    (Const.transfer ~width:n.Netlist.width)

(* perfbench's replay is the only user of this alias; the benchmark change
   that updates the replay (ROADMAP items 1 and 2) deletes it *)
let analyze_product = constants

let to_strings (n : Netlist.t) =
  let ranges = intervals n and consts = constants n in
  Array.to_list
    (Array.mapi
       (fun i (c : Netlist.cell) ->
         let lo, hi = ranges.(i) in
         Printf.sprintf "c%-4d %-18s %-28s %s" i (Netlist.op_to_string c.op)
           (Printf.sprintf "[%s, %s]" (Z.to_string lo) (Z.to_string hi))
           (Const.to_string consts.(i)))
       n.Netlist.cells)
