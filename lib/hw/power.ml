module Z = Polysynth_zint.Zint
module Rng = Polysynth_zint.Xorshift

type report = {
  dynamic : float;
  leakage : float;
  total : float;
}

(* the set bits of [v], 0 <= v < 2^62, summed in parallel: pairs, then
   nibbles, then bytes, the byte sums gathered in the top byte *)
let popcount v =
  let v = v - ((v lsr 1) land 0x1555555555555555) in
  let v = (v land 0x3333333333333333) + ((v lsr 2) land 0x3333333333333333) in
  let v = (v + (v lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (v * 0x0101010101010101) lsr 56

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

let toggles ~samples (n : Netlist.t) =
  let width = n.Netlist.width and names = Netlist.inputs n in
  let size = Netlist.num_cells n in
  if width <= 62 then begin
    let words = Netlist.compile (Netlist.Pow2 width) ~inputs:names n in
    fun inputs ->
      (* the position in [names] of each drawn input, -1 for one [n]
         lacks; the inputs of [n] outside [inputs] stay zero *)
      let slots =
        Array.of_list
          (List.map
             (fun v ->
               Option.value (List.find_index (String.equal v) names)
                 ~default:(-1))
             inputs)
      in
      let rng = Rng.make 1 and env = Array.make (List.length names) 0 in
      let sample out =
        Array.iter
          (fun slot ->
            let word = Netlist.draw_word rng ~width in
            if slot >= 0 then env.(slot) <- word)
          slots;
        Netlist.eval_words words env out
      in
      let prev = ref (Array.make size 0) in
      let current = ref (Array.make size 0) in
      sample !prev;
      let toggles = Array.make size 0 in
      for _ = 1 to samples do
        let p = !prev and c = !current in
        sample c;
        for i = 0 to size - 1 do
          toggles.(i) <- toggles.(i) + popcount (p.(i) lxor c.(i))
        done;
        prev := c;
        current := p
      done;
      toggles
  end
  else fun inputs ->
    let draw = Netlist.draw_words (Rng.make 1) ~width inputs in
    let sample () =
      let drawn = draw () in
      Netlist.values n (fun v ->
          Option.value (List.assoc_opt v drawn) ~default:Z.zero)
    in
    let prev = ref (sample ()) in
    let toggles = Array.make size 0 in
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
  let toggles = toggles ~samples n (Netlist.inputs n) in
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
