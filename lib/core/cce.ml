module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial

type result = {
  groups : (Z.t * Poly.t) list;
  residual : Poly.t;
}

module Zset = Set.Make (Z)

let candidate_gcds coeffs =
  let coeffs = List.map Z.abs coeffs in
  let rec pairs acc = function
    | [] -> acc
    | a :: rest ->
      let acc =
        List.fold_left
          (fun acc b ->
            let g = Z.gcd a b in
            (* keep only GCDs that equal one of the pair: extracting a
               strictly smaller common divisor adds constant multipliers
               instead of removing them (Section 14.4.1) *)
            if Z.is_one g || Z.is_zero g then acc
            else if Z.equal g a || Z.equal g b then Zset.add g acc
            else acc)
          acc rest
      in
      pairs acc rest
  in
  Zset.elements (pairs Zset.empty coeffs) |> List.rev

let extract p =
  (* only coefficients involved in a multiplication participate: the
     constant addend is always cheapest implemented directly *)
  let is_mult_term (_, m) = not (Monomial.is_one m) in
  let mult_terms, const_terms = List.partition is_mult_term (Poly.terms p) in
  let gcds =
    candidate_gcds (List.map fst mult_terms)
  in
  let rec extract_loop remaining groups = function
    | [] -> (List.rev groups, remaining)
    | g :: rest ->
      let covered, uncovered =
        List.partition (fun (c, _) -> Z.divides g c) remaining
      in
      if List.length covered >= 2 then begin
        let block =
          Poly.of_sorted_terms
            (List.map (fun (c, m) -> (Z.divexact c g, m)) covered)
        in
        extract_loop uncovered ((g, block) :: groups) rest
      end
      else extract_loop remaining groups rest
  in
  (* [covered], [left] and [const_terms] keep the order of [p]'s terms, and
     an exact division by [g] leaves no coefficient zero, so no term list
     needs sorting *)
  let groups, left = extract_loop mult_terms [] gcds in
  {
    groups;
    residual =
      Poly.add (Poly.of_sorted_terms left) (Poly.of_sorted_terms const_terms);
  }

let blocks r = List.map snd r.groups
