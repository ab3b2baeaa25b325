(* The width lint and the bit-growth figures, both read off the exact
   pre-wrap intervals of [Absint.intervals]. *)

module Z = Polysynth_zint.Zint
module Netlist = Polysynth_hw.Netlist

(* two's complement: the least w with hi < 2^(w-1) and -lo - 1 < 2^(w-1);
   [bits] counts the bits of a positive value, and 0 for the rest *)
let required_width ~lo ~hi =
  let bits v = if Z.sign v > 0 then Z.num_bits v else 0 in
  1 + max (bits hi) (bits (Z.sub (Z.neg lo) Z.one))

(* the width each cell needs *)
let needs n =
  Array.map (fun (lo, hi) -> required_width ~lo ~hi) (Absint.intervals n)

let max_required_width n = Array.fold_left max 1 (needs n)

let growth (n : Netlist.t) = max 0 (max_required_width n - n.Netlist.width)

type mode = Exact | Ring

let op_label (op : Netlist.op) =
  match op with
  | Netlist.Input v -> "input " ^ v
  | Netlist.Constant _ -> "constant"
  | Netlist.Negate -> "negation"
  | Netlist.Add2 -> "addition"
  | Netlist.Sub2 -> "subtraction"
  | Netlist.Mult2 -> "multiplication"
  | Netlist.Cmult _ -> "constant multiplication"
  | Netlist.Shl k -> Printf.sprintf "left shift by %d" k

let check_netlist ~mode (n : Netlist.t) =
  let needs = needs n in
  let width = n.Netlist.width in
  let findings =
    Array.to_list n.Netlist.cells
    |> List.filter_map (fun cell ->
           match cell.Netlist.op with
           | Netlist.Input _ ->
             (* an input holds the raw operand: nothing to truncate (its
                unsigned range [0, 2^w) is "w+1 bits" only in two's
                complement, a representation it never takes) *)
             None
           | _ ->
             let need = needs.(cell.Netlist.id) in
             if need > width then Some (cell, need) else None)
  in
  let total = List.length findings in
  let shown = Stdlib.min total 20 in
  let head =
    List.filteri (fun i _ -> i < shown) findings
    |> List.map (fun ((cell : Netlist.cell), need) ->
           let loc = Diag.Cell cell.Netlist.id in
           match mode with
           | Ring ->
             Diag.info ~code:"width.wrap" loc
               (Printf.sprintf
                  "%s needs %d bits, truncated to the %d-bit datapath \
                   (intentional Z_2^%d wrap-around)"
                  (op_label cell.Netlist.op) need width width)
           | Exact ->
             Diag.warning ~code:"width.overflow" loc
               (Printf.sprintf
                  "%s needs %d bits but the datapath holds %d: the result \
                   silently wraps for some inputs"
                  (op_label cell.Netlist.op) need width))
  in
  let summary =
    if total > shown then
      let code, mk =
        match mode with
        | Ring -> ("width.wrap", Diag.info)
        | Exact -> ("width.overflow", Diag.warning)
      in
      [
        mk ~code Diag.Program
          (Printf.sprintf "... and %d more cell%s outgrow the %d-bit datapath"
             (total - shown)
             (if total - shown = 1 then "" else "s")
             width);
      ]
    else []
  in
  head @ summary
