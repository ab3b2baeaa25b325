module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial

type factorization = { unit_part : Z.t; factors : (Poly.t * int) list }

let divexact p d =
  match Poly.div_exact p d with
  | Some q -> q
  | None ->
    (* Yun's algorithm only divides by gcds it just computed *)
    failwith
      "Squarefree: internal error: inexact division in Yun's algorithm"

(* Yun's algorithm w.r.t. one variable on a polynomial that is primitive
   w.r.t. that variable (so every factor mentions [v]).  Returns (s, k)
   pairs with k >= 1. *)
let yun v u =
  let deriv = Poly.derivative v in
  let g = Mgcd.gcd u (deriv u) in
  if Poly.is_const g then [ (u, 1) ]
  else begin
    let rec loop i w z acc =
      if Poly.is_const w then acc
      else begin
        let s = Mgcd.gcd w z in
        let w' = divexact w s in
        let y = divexact z s in
        let z' = Poly.sub y (deriv w') in
        let acc = if Poly.is_const s then acc else (s, i) :: acc in
        loop (i + 1) w' z' acc
      end
    in
    let w = divexact u g in
    let y = divexact (deriv u) g in
    let z = Poly.sub y (deriv w) in
    List.rev (loop 1 w z [])
  end

(* Merge two factor lists with disjoint factor supports: combine
   multiplicities per exponent. *)
let merge fa fb =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, k) ->
      let prev = match Hashtbl.find_opt tbl k with Some l -> l | None -> [] in
      Hashtbl.replace tbl k (s :: prev))
    (fa @ fb);
  Hashtbl.fold
    (fun k polys acc -> (List.fold_left Poly.mul Poly.one polys, k) :: acc)
    tbl []
  |> List.sort (fun (_, a) (_, b) -> Stdlib.compare a b)

(* full square-free decomposition of a primitive polynomial with positive
   leading coefficient, recursing over the variable set *)
let rec decompose u =
  if Poly.is_const u then []
  else
    match Poly.vars u with
    | [] -> []
    | v :: _ ->
      let cont = Mgcd.content_in v u in
      let pp = divexact u cont in
      merge (yun v pp) (decompose cont)

let squarefree u =
  if Poly.is_zero u then invalid_arg "Squarefree.squarefree: zero polynomial";
  match Poly.to_const_opt u with
  | Some c -> { unit_part = c; factors = [] }
  | None ->
    let c = Poly.content u in
    let c = if Z.is_negative (fst (Poly.leading u)) then Z.neg c else c in
    let prim = Poly.div_scalar_exact u c in
    { unit_part = c; factors = decompose prim }

let is_trivial { unit_part; factors } =
  Z.is_one unit_part && match factors with [ (_, 1) ] -> true | _ -> false

(* Newton's iteration for r >= 0 with r^k = n (k >= 2), from 2^ceil(bits/k),
   above the root.  While x^k > n, the step x' = ((k-1) x + n / x^(k-1)) / k
   falls and stays at or above floor(n^(1/k)), so the first x with x^k <= n
   is that floor, reached without dividing by its own power (for a large k
   the costliest division).  A value below 2^k has root 0, 1 or none. *)
let integer_root_abs n k =
  let rec fall x =
    let p = Z.pow x (k - 1) in
    let c = Z.compare (Z.mul x p) n in
    if c > 0 then
      fall (Z.div (Z.add (Z.mul_int x (k - 1)) (Z.div n p)) (Z.of_int k))
    else if c = 0 then Some x
    else None
  in
  if Z.num_bits n <= k then if Z.compare n Z.one <= 0 then Some n else None
  else fall (Z.pow2 ((Z.num_bits n + k - 1) / k))

let integer_root n k =
  if k < 1 then invalid_arg "Squarefree.integer_root: k < 1";
  if k = 1 then Some n
  else if Z.is_negative n then
    if k land 1 = 0 then None
    else Option.map Z.neg (integer_root_abs (Z.abs n) k)
  else integer_root_abs n k

let rec igcd a b = if b = 0 then a else igcd b (a mod b)

(* the prime factors of [n >= 1], increasing *)
let prime_factors n =
  let rec strip n q = if n mod q = 0 then strip (n / q) q else n in
  let rec go n q =
    if n < 2 then []
    else if q * q > n then [ n ]
    else if n mod q = 0 then q :: go (strip n q) (q + 1)
    else go n (q + 1)
  in
  go n 2

(* The value test run before the square-free factorization (see the
   interface for why it is sound): some prime [q] dividing every exponent
   of the leading monomial must leave [u] a [q]-th power at two fixed
   points, its [i]-th variable set to [2i + 3], then to [-(3i + 2)]. *)
let may_be_perfect_power u =
  let g = Monomial.fold (fun g _ e -> igcd g e) 0 (snd (Poly.leading u)) in
  g >= 2
  &&
  let index = List.mapi (fun i v -> (v, i)) (Poly.vars u) in
  let at f = Poly.eval (fun v -> Z.of_int (f (List.assoc v index))) u in
  let a = at (fun i -> (2 * i) + 3) and b = at (fun i -> -((3 * i) + 2)) in
  List.exists
    (fun q -> integer_root a q <> None && integer_root b q <> None)
    (prime_factors g)

let perfect_power_root u =
  if Poly.is_zero u || Poly.is_const u || not (may_be_perfect_power u) then
    None
  else begin
    let { unit_part; factors } = squarefree u in
    let k = List.fold_left (fun acc (_, e) -> igcd acc e) 0 factors in
    (* try divisors of k from largest to smallest *)
    let rec try_k k =
      if k < 2 then None
      else if
        List.for_all (fun (_, e) -> e mod k = 0) factors
      then
        match integer_root unit_part k with
        | Some root ->
          let v =
            List.fold_left
              (fun acc (s, e) -> Poly.mul acc (Poly.pow s (e / k)))
              (Poly.const root) factors
          in
          Some (v, k)
        | None -> try_k (k - 1)
      else try_k (k - 1)
    in
    try_k k
  end
