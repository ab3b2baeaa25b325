module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Kernel = Polysynth_cse.Kernel
module Squarefree = Polysynth_factor.Squarefree
module Linear_factors = Polysynth_factor.Linear_factors

let is_linear p =
  (not (Poly.is_zero p)) && (not (Poly.is_const p)) && Poly.degree p = 1

module PolySet = Set.Make (Poly)

let add_candidate acc p =
  let n = Poly.primitive_part p in
  if is_linear n && Poly.num_terms n >= 2 then PolySet.add n acc else acc

let candidates_of_poly acc p =
  if Poly.is_zero p || Poly.is_const p then acc
  else begin
    (* CCE quotient blocks *)
    let cce = Cce.extract p in
    let acc =
      List.fold_left add_candidate acc (Cce.blocks cce)
    in
    (* kernels (their primitive parts drop the coefficient content that
       CCE extracts separately) *)
    let acc =
      List.fold_left
        (fun acc (_, k) -> add_candidate acc k)
        acc (Kernel.kernels p)
    in
    (* linear square-free factors of the polynomial and of the CCE blocks
       (a linear perfect-power root is one: [c * v^k] has the one factor
       [v]) *)
    let squarefree_sources = p :: Cce.blocks cce in
    let acc =
      List.fold_left
        (fun acc q ->
          if Poly.is_zero q || Poly.is_const q then acc
          else
            let { Squarefree.factors; _ } = Squarefree.squarefree q in
            List.fold_left (fun acc (s, _) -> add_candidate acc s) acc factors)
        acc squarefree_sources
    in
    (* rational-root linear factors of univariate polynomials: blocks like
       (2x - 3) that neither kernels nor square-free structure expose *)
    match Poly.vars p with
    | [ v ] ->
      let factors, _ = Linear_factors.linear_factors v p in
      List.fold_left (fun acc (f, _) -> add_candidate acc f) acc factors
    | [] | _ :: _ :: _ -> acc
  end

(* the ranking key: the number of system polynomials on which division by
   the block makes progress (non-zero quotient) *)
let usefulness system d =
  List.length
    (List.filter
       (fun p ->
         (not (Poly.is_zero p))
         &&
         let q, _ = Poly.div_rem p d in
         not (Poly.is_zero q))
       system)

let discover ?(max_blocks = 16) system =
  let cands =
    List.fold_left candidates_of_poly PolySet.empty system
  in
  let ranked =
    PolySet.elements cands
    |> List.map (fun d -> (usefulness system d, d))
    |> List.filter (fun (u, _) -> u > 0)
    |> List.stable_sort (fun (a, da) (b, db) ->
           if a <> b then Stdlib.compare b a else Poly.compare da db)
  in
  List.filteri (fun i _ -> i < max_blocks) (List.map snd ranked)
