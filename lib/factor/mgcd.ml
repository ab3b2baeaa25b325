module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly

(* positive-leading-coefficient normalization *)
let normalize p =
  if Poly.is_zero p then p
  else if Z.is_negative (fst (Poly.leading p)) then Poly.neg p
  else p

(* [Poly.degree_in v p = d] promises a degree-[d] coefficient; a miss
   means [degree_in] and [coeffs_in] disagree *)
let leading_coeff_in v d p =
  match List.assoc_opt d (Poly.coeffs_in v p) with
  | Some c -> c
  | None ->
    failwith
      (Printf.sprintf
         "Mgcd: internal error: no coefficient at the reported degree %d" d)

let pseudo_rem v a b =
  let db = Poly.degree_in v b in
  if Poly.is_zero b || db = 0 then raise Division_by_zero;
  let lc_b = leading_coeff_in v db b in
  let rec reduce r =
    let dr = Poly.degree_in v r in
    if Poly.is_zero r || dr < db then r
    else
      let lc_r = leading_coeff_in v dr r in
      (* r := lc_b * r - lc_r * v^(dr-db) * b  cancels the leading term *)
      let shift = if dr = db then Poly.one else Poly.var ~exp:(dr - db) v in
      reduce (Poly.sub (Poly.mul lc_b r) (Poly.mul (Poly.mul lc_r shift) b))
  in
  reduce a

let rec gcd a b =
  if Poly.is_zero a then normalize b
  else if Poly.is_zero b then normalize a
  else
    match Poly.to_const_opt a, Poly.to_const_opt b with
    | Some ca, _ -> Poly.const (Z.gcd ca (Poly.content b))
    | _, Some cb -> Poly.const (Z.gcd cb (Poly.content a))
    | None, None ->
      let shared =
        List.filter (fun v -> Poly.mentions v b) (Poly.vars a)
      in
      (match shared with
       | [] ->
         (* no common variable: only a constant can divide both *)
         Poly.const (Z.gcd (Poly.content a) (Poly.content b))
       | v :: _ -> normalize (gcd_in v a b))

and gcd_in v a b =
  (* content/primitive split w.r.t. the main variable, then primitive PRS *)
  let cont_a = content_in v a and cont_b = content_in v b in
  let pa = divexact_poly a cont_a and pb = divexact_poly b cont_b in
  let g_cont = gcd cont_a cont_b in
  let rec prs a b =
    (* invariant: deg_v a >= deg_v b > ... both primitive w.r.t. v *)
    if Poly.is_zero b then a
    else if Poly.degree_in v b = 0 then
      (* a primitive polynomial shares only trivial factors with one free
         of v *)
      Poly.one
    else
      let r = pseudo_rem v a b in
      if Poly.is_zero r then b
      else prs b (primitive_part_in v r)
  in
  let pa, pb =
    if Poly.degree_in v pa >= Poly.degree_in v pb then pa, pb else pb, pa
  in
  let g_prim = prs pa pb in
  let g_prim = if Poly.degree_in v g_prim = 0 then Poly.one else g_prim in
  Poly.mul g_cont g_prim

and content_in v p =
  List.fold_left (fun acc (_, c) -> gcd acc c) Poly.zero (Poly.coeffs_in v p)

and divexact_poly p d =
  match Poly.div_exact p d with
  | Some q -> q
  | None ->
    (* content divides every coefficient by construction *)
    failwith "Mgcd: internal error: content division left a remainder"

and primitive_part_in v p =
  if Poly.is_zero p then p else divexact_poly p (content_in v p)
