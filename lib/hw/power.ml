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

let cell_values (n : Netlist.t) env =
  let values = Array.make (Array.length n.Netlist.cells) Z.zero in
  let clamp v = Z.erem_pow2 v n.Netlist.width in
  Array.iter
    (fun cell ->
      let arg k = values.(List.nth cell.Netlist.fanin k) in
      let v =
        match cell.Netlist.op with
        | Netlist.Input v -> env v
        | Netlist.Constant c -> c
        | Netlist.Negate -> Z.neg (arg 0)
        | Netlist.Add2 -> Z.add (arg 0) (arg 1)
        | Netlist.Sub2 -> Z.sub (arg 0) (arg 1)
        | Netlist.Mult2 -> Z.mul (arg 0) (arg 1)
        | Netlist.Cmult c -> Z.mul c (arg 0)
        | Netlist.Shl k -> Z.mul (Z.pow2 k) (arg 0)
      in
      values.(cell.Netlist.id) <- clamp v)
    n.Netlist.cells;
  values

let cell_area (model : Cost.model) width op =
  match op with
  | Netlist.Input _ | Netlist.Constant _ -> 0
  | Netlist.Negate -> model.Cost.neg_area width
  | Netlist.Add2 | Netlist.Sub2 -> model.Cost.add_area width
  | Netlist.Mult2 -> model.Cost.mult_area width
  | Netlist.Cmult c -> model.Cost.cmult_area width c
  | Netlist.Shl _ -> 0

let estimate ?(samples = 64) ?(seed = 1) (n : Netlist.t) =
  if samples < 1 then invalid_arg "Power.estimate: samples < 1";
  let w = n.Netlist.width in
  let rng = Rng.make seed in
  let inputs = Netlist.inputs n in
  let random_env () =
    let bindings =
      List.map
        (fun v ->
          (* two limbs so widths above 30 still get full-range values *)
          let hi = Rng.next rng (1 lsl 30) and lo = Rng.next rng (1 lsl 30) in
          let value =
            Z.erem_pow2 (Z.add (Z.mul (Z.of_int hi) (Z.pow2 30)) (Z.of_int lo)) w
          in
          (v, value))
        inputs
    in
    fun v ->
      match List.assoc_opt v bindings with Some x -> x | None -> Z.zero
  in
  let num_cells = Array.length n.Netlist.cells in
  let toggles = Array.make num_cells 0 in
  let prev = ref (cell_values n (random_env ())) in
  for _ = 1 to samples do
    let current = cell_values n (random_env ()) in
    Array.iteri
      (fun i v -> toggles.(i) <- toggles.(i) + hamming_distance !prev.(i) v w)
      current;
    prev := current
  done;
  let per_cell_activity =
    Array.map (fun t -> float_of_int t /. float_of_int samples) toggles
  in
  let model = Cost.default in
  let dynamic =
    Array.fold_left
      (fun acc cell ->
        acc
        +. per_cell_activity.(cell.Netlist.id)
           *. float_of_int (cell_area model w cell.Netlist.op))
      0.0 n.Netlist.cells
  in
  let total_area =
    Array.fold_left
      (fun acc cell -> acc + cell_area model w cell.Netlist.op)
      0 n.Netlist.cells
  in
  let leakage = 0.01 *. float_of_int total_area in
  { dynamic; leakage; total = dynamic +. leakage; per_cell_activity }

let pp_report fmt r =
  Format.fprintf fmt "power: dynamic=%.1f leakage=%.1f total=%.1f" r.dynamic
    r.leakage r.total
