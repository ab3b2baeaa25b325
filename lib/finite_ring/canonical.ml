module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial

type ctx = { out_width : int; var_widths : (string * int) list; lam : int }

let make_ctx ~out_width ?(var_widths = []) () =
  if out_width <= 0 then invalid_arg "Canonical.make_ctx: non-positive width";
  List.iter
    (fun (_, w) ->
      if w <= 0 then invalid_arg "Canonical.make_ctx: non-positive width")
    var_widths;
  { out_width; var_widths; lam = Smarandache.lambda out_width }

let out_width ctx = ctx.out_width

let var_width ctx v =
  match List.assoc_opt v ctx.var_widths with
  | Some w -> w
  | None -> ctx.out_width

let mu ctx v =
  let n = var_width ctx v in
  if n >= 30 then ctx.lam else Stdlib.min (1 lsl n) ctx.lam

type falling = Poly.t

let falling_terms f = Poly.terms f

(* x^e = sum_{k=0..e} S2(e,k) Y_k(x); expand a power-basis term variable by
   variable, accumulating (coefficient, falling-monomial) pairs. *)
let to_falling p =
  let expand_term (c, m) =
    Monomial.fold
      (fun partial v e ->
        List.concat_map
          (fun (c0, m0) ->
            List.filter_map
              (fun k ->
                let s = Stirling.second e k in
                if Z.is_zero s then None
                else
                  let m' =
                    if k = 0 then m0
                    else Monomial.mul m0 (Monomial.var ~exp:k v)
                  in
                  Some (Z.mul c0 s, m'))
              (List.init (e + 1) Fun.id))
          partial)
      [ (c, Monomial.one) ]
      m
  in
  Poly.of_terms (List.concat_map expand_term (Poly.terms p))

(* Y_k(x) = sum_j s(k,j) x^j *)
let falling_factorial_poly v k =
  Poly.of_terms
    (List.filter_map
       (fun j ->
         let s = Stirling.first_signed k j in
         if Z.is_zero s then None
         else
           let m = if j = 0 then Monomial.one else Monomial.var ~exp:j v in
           Some (s, m))
       (List.init (k + 1) Fun.id))

let of_falling f =
  List.fold_left
    (fun acc (c, m) ->
      let product =
        Monomial.fold
          (fun acc v k -> Poly.mul acc (falling_factorial_poly v k))
          Poly.one m
      in
      Poly.add acc (Poly.mul_scalar c product))
    Poly.zero (falling_terms f)

let vanishing_term ctx m =
  List.exists (fun (v, k) -> k >= mu ctx v) (Monomial.to_list m)

let term_modulus ctx m =
  let pow_m = Z.pow2 ctx.out_width in
  let prod_fact =
    Monomial.fold (fun acc _ k -> Z.mul acc (Z.factorial k)) Z.one m in
  Z.divexact pow_m (Z.gcd pow_m prod_fact)

let canonicalize ctx p =
  let reduced =
    List.filter_map
      (fun (c, m) ->
        if vanishing_term ctx m then None
        else
          let c' = snd (Z.ediv_rem c (term_modulus ctx m)) in
          if Z.is_zero c' then None else Some (c', m))
      (falling_terms (to_falling p))
  in
  Poly.of_terms reduced
