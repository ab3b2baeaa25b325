module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly

(* Trial division stops at this prime bound.  Every |c| < 2^32 still
   factors completely: a cofactor below 65537^2 with no prime factor up to
   the bound is itself prime. *)
let trial_bound = 65_536

(* the prime factorization of [n > 0] as (prime, exponent) pairs, dividing
   out each prime as it is found so the loop stops at the square root of
   the remaining cofactor; [None] when a cofactor with no prime factor up to
   [trial_bound] is too large to be known prime *)
let factorization n =
  let rec go n d acc =
    let dz = Z.of_int d in
    if Z.is_one n then Some acc
    else if Z.compare (Z.mul dz dz) n > 0 then Some ((n, 1) :: acc)
    else if d > trial_bound then None
    else if Z.divides dz n then begin
      let rec strip n e =
        if Z.divides dz n then strip (Z.divexact n dz) (e + 1) else (n, e)
      in
      let n, e = strip n 0 in
      go n (d + 1) ((dz, e) :: acc)
    end
    else go n (d + 1) acc
  in
  go n 2 []

(* more (numerator, denominator) divisor pairs than this give no candidates:
   a highly composite coefficient would otherwise take quadratic time *)
let max_candidate_pairs = 4096

(* the number of divisors of a factorization, saturating past
   [max_candidate_pairs] *)
let num_divisors =
  List.fold_left
    (fun n (_, e) -> Stdlib.min (max_candidate_pairs + 1) (n * (e + 1)))
    1

(* the positive divisors of a factorization *)
let divisors =
  List.fold_left
    (fun ds (p, e) ->
      List.concat_map
        (fun d -> List.init (e + 1) (fun k -> Z.mul d (Z.pow p k)))
        ds)
    [ Z.one ]

let check_univariate v u =
  if Poly.is_zero u then invalid_arg "Linear_factors: zero polynomial";
  match List.filter (fun v' -> v' <> v) (Poly.vars u) with
  | [] -> ()
  | _ :: _ -> invalid_arg "Linear_factors: polynomial is not univariate"

(* [check_univariate] guarantees every v-coefficient is a constant; a
   non-constant here means [Poly.coeffs_in] broke that contract *)
let const_coeff c =
  match Poly.to_const_opt c with
  | Some c -> c
  | None ->
    failwith
      "Linear_factors: internal error: non-constant coefficient in a \
       univariate polynomial"

let eval_at v num den u =
  (* u(num/den) * den^deg: integer by clearing denominators *)
  let deg = Poly.degree_in v u in
  List.fold_left
    (fun acc (k, c) ->
      let c = const_coeff c in
      Z.add acc (Z.mul c (Z.mul (Z.pow num k) (Z.pow den (deg - k)))))
    Z.zero (Poly.coeffs_in v u)

let roots v u =
  check_univariate v u;
  let coeffs = Poly.coeffs_in v u in
  (* strip the root at zero first: trailing coefficient of the v-free part *)
  let min_deg =
    List.fold_left (fun acc (k, _) -> Stdlib.min acc k) max_int coeffs
  in
  let zero_root = min_deg > 0 in
  let shifted =
    List.filter_map
      (fun (k, c) -> if k >= min_deg then Some (k - min_deg, c) else None)
      coeffs
  in
  let trailing =
    match List.assoc_opt 0 shifted with
    | Some c -> const_coeff c
    | None -> Z.one
  in
  let leading =
    let dmax = List.fold_left (fun acc (k, _) -> Stdlib.max acc k) 0 shifted in
    match List.assoc_opt dmax shifted with
    | Some c -> const_coeff c
    | None -> Z.one
  in
  let candidates =
    match shifted with
    | [ _ ] -> [] (* a non-zero constant: no root to search for *)
    | _ -> (
      match (factorization (Z.abs trailing), factorization (Z.abs leading)) with
      | Some fb, Some fa
        when num_divisors fb * num_divisors fa <= max_candidate_pairs ->
        let dens = divisors fa in
        List.concat_map
          (fun b ->
            List.concat_map
              (fun a ->
                if Z.is_one (Z.gcd a b) then [ (b, a); (Z.neg b, a) ] else [])
              dens)
          (divisors fb)
      | _ -> [])
  in
  let found =
    List.filter (fun (b, a) -> Z.is_zero (eval_at v b a u)) candidates
  in
  let dedup =
    List.sort_uniq
      (fun (b1, a1) (b2, a2) ->
        let c = Z.compare a1 a2 in
        if c <> 0 then c else Z.compare b1 b2)
      found
  in
  if zero_root then (Z.zero, Z.one) :: dedup else dedup

let linear_factors v u =
  check_univariate v u;
  let factor_of (b, a) =
    (* a*v - b, primitive with positive leading coefficient *)
    Poly.sub (Poly.mul_scalar a (Poly.var v)) (Poly.const b)
  in
  let rec strip u (b, a) count =
    match Poly.div_exact u (factor_of (b, a)) with
    | Some q -> strip q (b, a) (count + 1)
    | None -> (u, count)
  in
  let rs = roots v u in
  let rest, factors =
    List.fold_left
      (fun (u, acc) root ->
        let u', k = strip u root 0 in
        if k > 0 then (u', (factor_of root, k) :: acc) else (u, acc))
      (u, []) rs
  in
  (List.rev factors, rest)
