module Z = Polysynth_zint.Zint
module Rng = Polysynth_zint.Xorshift

type report = {
  dynamic : float;
  leakage : float;
  total : float;
}

let rec popcount v = if v = 0 then 0 else 1 + popcount (v land (v - 1))

let hamming_distance a b w =
  (* both already reduced into [0, 2^w) *)
  match Z.to_int_opt a, Z.to_int_opt b with
  | Some x, Some y -> popcount (x lxor y)
  | None, _ | _, None ->
    (* 30 bits at a time: one remainder and one division per chunk *)
    let chunk = Z.pow2 30 in
    let rec go a b bits acc =
      if bits >= w then acc
      else
        let lo z = Z.to_int_exn (Z.erem_pow2 z 30) in
        go (Z.div a chunk) (Z.div b chunk) (bits + 30)
          (acc + popcount (lo a lxor lo b))
    in
    go a b 0 0

let toggles ~samples ~width inputs values =
  let draw = Netlist.draw_words (Rng.make 1) ~width inputs in
  let sample () =
    let inputs = draw () in
    values (fun v -> List.assoc v inputs)
  in
  let prev = ref (sample ()) in
  let toggles = Array.make (Array.length !prev) 0 in
  for _ = 1 to samples do
    let current = sample () in
    Array.iteri
      (fun i v ->
        toggles.(i) <- toggles.(i) + hamming_distance !prev.(i) v width)
      current;
    prev := current
  done;
  toggles

let cell_area ~width op = Cost.cell_area Cost.default width op

(* Each cell's activity is toggles / samples; summing toggles x area as an
   integer and dividing once makes the total independent of the order in
   which cells are visited.  For a power-of-two [samples] every term
   toggles / samples x area is exact in floating point, so while the sum
   stays below 2^53 this also equals the float sum of the per-cell terms,
   in any order, bit for bit. *)
let dynamic ~samples ~switched = float_of_int switched /. float_of_int samples
let leakage ~area = 0.01 *. float_of_int area

let total ~samples ~switched ~area =
  dynamic ~samples ~switched +. leakage ~area

let estimate ?(samples = 64) (n : Netlist.t) =
  if samples < 1 then invalid_arg "Power.estimate: samples < 1";
  let width = n.Netlist.width in
  let toggles =
    toggles ~samples ~width (Netlist.inputs n) (Netlist.values n)
  in
  let switched = ref 0 and area = ref 0 in
  Array.iter
    (fun (cell : Netlist.cell) ->
      let a = cell_area ~width cell.Netlist.op in
      switched := !switched + (toggles.(cell.Netlist.id) * a);
      area := !area + a)
    n.Netlist.cells;
  let switched = !switched and area = !area in
  {
    dynamic = dynamic ~samples ~switched;
    leakage = leakage ~area;
    total = total ~samples ~switched ~area;
  }

let pp_report fmt r =
  Format.fprintf fmt "power: dynamic=%.1f leakage=%.1f total=%.1f" r.dynamic
    r.leakage r.total
