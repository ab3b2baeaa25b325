module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Expr = Polysynth_expr.Expr
module Canonical = Polysynth_finite_ring.Canonical

(* Y_k(v) as a flat factor list: Y_1 = [v]; Y_k = [Y2-block; (v-2); ...;
   (v-k+1)] for k >= 2 *)
let falling_factors table v k =
  if k = 1 then [ Expr.var v ]
  else begin
    let y2 = Expr.var (Blocktab.y2_var table v) in
    y2
    :: List.init (k - 2) (fun i ->
           Expr.sub (Expr.var v) (Expr.int (i + 2)))
  end

let term_factors table c mono =
  let factors =
    List.concat_map
      (fun (v, k) -> falling_factors table v k)
      (Monomial.to_list mono)
  in
  Expr.mul (Expr.const c :: factors)

let rep ctx table p =
  let falling = Canonical.canonicalize ctx p in
  Expr.add
    (List.map
       (fun (c, mono) -> term_factors table c mono)
       (Canonical.falling_terms falling))
