module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Rng = Polysynth_zint.Xorshift

type config = {
  num_polys : int;
  num_vars : int;
  max_terms : int;
  max_degree : int;
  max_coeff : int;
  sharing : bool;
}

let default_config =
  {
    num_polys = 3;
    num_vars = 3;
    max_terms = 6;
    max_degree = 3;
    max_coeff = 16;
    sharing = true;
  }

let var_name i = Printf.sprintf "x%d" i

let random_monomial rng cfg =
  let degree = Rng.next rng (cfg.max_degree + 1) in
  let rec build acc left =
    if left = 0 then acc
    else
      let v = var_name (Rng.next rng cfg.num_vars) in
      build ((v, 1) :: acc) (left - 1)
  in
  Monomial.of_list (build [] degree)

let random_coeff rng cfg =
  let c = 1 + Rng.next rng cfg.max_coeff in
  if Rng.next rng 2 = 0 then Z.of_int c else Z.of_int (-c)

let random_linear rng cfg =
  let a = random_coeff rng cfg and b = random_coeff rng cfg in
  let v1 = var_name (Rng.next rng cfg.num_vars) in
  let v2 = var_name (Rng.next rng cfg.num_vars) in
  Poly.add
    (Poly.mul_scalar a (Poly.var v1))
    (Poly.mul_scalar b (Poly.var v2))

let random_poly rng cfg pool =
  let num_terms = 1 + Rng.next rng cfg.max_terms in
  let base =
    Poly.add_list
      (List.init num_terms (fun _ ->
           Poly.term (random_coeff rng cfg) (random_monomial rng cfg)))
  in
  if cfg.sharing && pool <> [] && Rng.next rng 2 = 0 then begin
    (* multiply a shared linear block in, or add its square *)
    let block = List.nth pool (Rng.next rng (List.length pool)) in
    if Rng.next rng 2 = 0 then Poly.mul base block
    else Poly.add base (Poly.mul block block)
  end
  else base

let generate ~seed cfg =
  let rng = Rng.make seed in
  let pool =
    if cfg.sharing then List.init 2 (fun _ -> random_linear rng cfg) else []
  in
  List.init cfg.num_polys (fun _ -> random_poly rng cfg pool)
