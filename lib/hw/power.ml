module Z = Polysynth_zint.Zint
module Rng = Polysynth_zint.Xorshift

type report = {
  dynamic : float;
  leakage : float;
  total : float;
  per_cell_activity : float array;
}

let rec popcount v = if v = 0 then 0 else 1 + popcount (v land (v - 1))

let hamming_distance a b w =
  (* both already reduced into [0, 2^w) *)
  match Z.to_int_opt a, Z.to_int_opt b with
  | Some x, Some y -> popcount (x lxor y)
  | None, _ | _, None ->
    let rec go i acc =
      if i >= w then acc
      else
        let bit z =
          Z.to_int_exn (Z.erem_pow2 (Z.div z (Z.pow2 i)) 1)
        in
        go (i + 1) (acc + if bit a <> bit b then 1 else 0)
    in
    go 0 0

let estimate ?(samples = 64) ?(seed = 1) (n : Netlist.t) =
  if samples < 1 then invalid_arg "Power.estimate: samples < 1";
  let w = n.Netlist.width in
  let draw = Netlist.draw_inputs (Rng.make seed) n in
  let sample () =
    let inputs = draw () in
    Netlist.values n (fun v -> List.assoc v inputs)
  in
  let num_cells = Array.length n.Netlist.cells in
  let toggles = Array.make num_cells 0 in
  let prev = ref (sample ()) in
  for _ = 1 to samples do
    let current = sample () in
    Array.iteri
      (fun i v -> toggles.(i) <- toggles.(i) + hamming_distance !prev.(i) v w)
      current;
    prev := current
  done;
  let per_cell_activity =
    Array.map (fun t -> float_of_int t /. float_of_int samples) toggles
  in
  let area (cell : Netlist.cell) = Cost.cell_area Cost.default w cell.op in
  let dynamic =
    Array.fold_left
      (fun acc cell ->
        acc
        +. per_cell_activity.(cell.Netlist.id) *. float_of_int (area cell))
      0.0 n.Netlist.cells
  in
  let total_area =
    Array.fold_left (fun acc cell -> acc + area cell) 0 n.Netlist.cells
  in
  let leakage = 0.01 *. float_of_int total_area in
  { dynamic; leakage; total = dynamic +. leakage; per_cell_activity }

let pp_report fmt r =
  Format.fprintf fmt "power: dynamic=%.1f leakage=%.1f total=%.1f" r.dynamic
    r.leakage r.total
