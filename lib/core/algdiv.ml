module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Expr = Polysynth_expr.Expr
module Dag = Polysynth_expr.Dag
module Kernel = Polysynth_cse.Kernel
module Squarefree = Polysynth_factor.Squarefree

(* a memo key carries its polynomial's hash, so a miss hashes it once *)
module Key = struct
  type t = { poly : Poly.t; hash : int }

  let equal a b = a.hash = b.hash && Poly.equal a.poly b.poly
  let hash k = k.hash
end

module Memo = Hashtbl.Make (Key)

(* a divisor and its block name, registered in the table on first use *)
type divisor = { div : Poly.t; mutable name : string option }

type session = {
  table : Blocktab.t;
  divs : divisor list;
  memo : Expr.t Memo.t;
}

let make_session table ~divisors =
  { table;
    divs = List.map (fun div -> { div; name = None }) divisors;
    memo = Memo.create 64 }

let divisor_name s d =
  match d.name with
  | Some name -> name
  | None ->
    let name = Blocktab.divisor_var s.table d.div in
    d.name <- Some name;
    name

let cost e = Dag.total_ops (Dag.tree_counts e)

let cheapest candidates =
  match candidates with
  | [] -> invalid_arg "Algdiv.cheapest: no candidates"
  | first :: rest ->
    fst
      (List.fold_left
         (fun ((_, best_cost) as best) cand ->
           let c = cost cand in
           if c < best_cost then (cand, c) else best)
         (first, cost first) rest)

(* [p = c * primitive_part p]: the content with the sign of the leading
   coefficient *)
let content_factor p =
  let c = Poly.content p in
  if Z.is_negative (fst (Poly.leading p)) then Z.neg c else c

(* expression for a possibly non-normalized linear root: strip the content
   onto a constant factor and reference the divisor block *)
let root_expr s root =
  let c = content_factor root in
  let n = Poly.div_scalar_exact root c in
  if Blocks.is_linear n then
    Expr.mul [ Expr.const c; Expr.var (Blocktab.divisor_var s.table n) ]
  else Expr.of_poly root

(* Recursion is bounded: a polynomial reached [max_depth] levels down is
   rendered directly.  Datapath polynomials are shallow, and without a
   bound the 6-divisor branching on random degree-4 systems visits
   thousands of intermediate polynomials, each paying a square-free
   factorization. *)
let max_depth = 4

(* cheap necessary condition for p = root^k: the leading coefficient must
   itself be a perfect power *)
let could_be_perfect_power p =
  (not (Poly.is_const p))
  && Poly.degree p >= 2
  && Poly.num_terms p <= 12
  &&
  let lc = Z.abs (fst (Poly.leading p)) in
  Z.is_one lc
  || List.exists
       (fun k -> Squarefree.integer_root lc k <> None)
       [ 2; 3; 5; 7 ]

let rec decompose_at depth s p =
  let key = { Key.poly = p; hash = Poly.hash p } in
  match Memo.find_opt s.memo key with
  | Some e -> e
  | None ->
    (* break potential cycles defensively: memoize the direct form first,
       then overwrite with the winner *)
    let direct = Expr.of_poly p in
    Memo.replace s.memo key direct;
    let result = choose depth s p direct in
    Memo.replace s.memo key result;
    result

and choose depth s p direct =
  if Poly.is_zero p || Poly.is_const p then direct
  else begin
    let deeper = decompose_at (depth + 1) s in
    let content_candidate =
      let c = content_factor p in
      if (not (Z.is_one (Z.abs c))) && Poly.num_terms p >= 2 then
        [ Expr.mul [ Expr.const c; deeper (Poly.div_scalar_exact p c) ] ]
      else []
    in
    let power_candidate =
      if not (could_be_perfect_power p) then []
      else
        match Squarefree.perfect_power_root p with
        | Some (root, k) when not (Poly.is_const root) ->
          [ Expr.pow (root_expr s root) k ]
        | Some _ | None -> []
    in
    let structural_candidates =
      if depth >= max_depth then []
      else begin
        let division_candidates =
          List.filter_map
            (fun d ->
              let q, r = Poly.div_rem p d.div in
              if Poly.is_zero q then None
              else begin
                let dv = divisor_name s d in
                Some
                  (Expr.add [ Expr.mul [ Expr.var dv; deeper q ]; deeper r ])
              end)
            s.divs
        in
        let cce_candidate =
          let r = Cce.extract p in
          match r.Cce.groups with
          | [] -> []
          | groups ->
            [ Expr.add
                (List.map
                   (fun (g, b) -> Expr.mul [ Expr.const g; deeper b ])
                   groups
                @ [ deeper r.Cce.residual ]) ]
        in
        let kernel_candidate =
          let ks =
            Kernel.kernels p
            |> List.filter (fun (ck, _) -> not (Monomial.is_one ck))
            |> List.stable_sort (fun (ck1, k1) (ck2, k2) ->
                   let score (ck, k) = Poly.num_terms k * Monomial.degree ck in
                   Stdlib.compare (score (ck2, k2)) (score (ck1, k1)))
          in
          match ks with
          | [] -> []
          | (ck, k) :: _ ->
            let rest = Poly.sub p (Poly.mul_term Z.one ck k) in
            [ Expr.add
                [ Expr.mul (Expr.of_poly (Poly.monomial ck) :: [ deeper k ]);
                  deeper rest ] ]
        in
        division_candidates @ cce_candidate @ kernel_candidate
      end
    in
    cheapest
      ((direct :: content_candidate) @ power_candidate @ structural_candidates)
  end

let decompose s p = decompose_at 0 s p
