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

(* a memo entry is a decomposition and its operator count *)
type session = {
  table : Blocktab.t;
  divs : divisor list;
  memo : (Expr.t * int) Memo.t;
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

(* The best candidate so far.  A division [d * Q + R] stays unbuilt until
   it has won. *)
type winner = Built of Expr.t | Division of string * Expr.t * Expr.t

let build = function
  | Built e -> e
  | Division (dv, eq, er) -> Expr.add [ Expr.mul [ Expr.var dv; eq ]; er ]

(* What [Dag.tree_ops] gives the built division: the smart constructors
   fold [dv * (+-1)] to [+-dv] and [m + 0] to [m], and otherwise add one
   product and one sum to their operands' counts.  The product may merge
   [dv] with a [dv] factor of [eq] into a power, which costs the same;
   no decomposition holds a product with a repeated factor that is not a
   power of a variable, whose merging would cost less. *)
let division_price (eq, cq) (er, cr) =
  let unit_q =
    match eq with
    | Expr.Const c | Expr.Neg (Expr.Const c) -> Z.is_one c
    | Expr.Var _ | Expr.Neg _ | Expr.Add _ | Expr.Mul _ | Expr.Pow _ -> false
  in
  cq + cr + (if unit_q then 0 else 1) + if Expr.equal er Expr.zero then 0 else 1

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

(* A heuristic gate in front of [Squarefree.perfect_power_root], not a
   necessary condition: the leading coefficient of [root^k] is a [k]-th
   power, but only [k] in {2, 3, 5, 7} is tried, so e.g. [(2x + 1)^11]
   does not pass, and neither does a polynomial of more than 12 terms.
   The gate decides which power candidates exist: widening it would change
   the decompositions, not only their cost. *)
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
  | Some entry -> entry
  | None ->
    (* break potential cycles defensively: memoize the direct form first,
       then overwrite with the winner *)
    let direct = Expr.of_poly p in
    let entry = (direct, Dag.tree_ops direct) in
    Memo.replace s.memo key entry;
    let result = choose depth s p entry in
    Memo.replace s.memo key result;
    result

(* The candidates are tried in a fixed order and a later one wins only if
   it is strictly cheaper.  The memo keeps the first call to reach a
   polynomial, so the order of the [deeper] calls (and of the divisor
   naming) fixes the result and must not change. *)
and choose depth s p (direct, direct_cost) =
  if Poly.is_zero p || Poly.is_const p then (direct, direct_cost)
  else begin
    let deeper p = fst (decompose_at (depth + 1) s p) in
    let best = ref (Built direct) and best_cost = ref direct_cost in
    let consider winner c =
      if c < !best_cost then begin
        best := winner;
        best_cost := c
      end
    in
    let consider_built e = consider (Built e) (Dag.tree_ops e) in
    (* content *)
    (let c = content_factor p in
     if (not (Z.is_one (Z.abs c))) && Poly.num_terms p >= 2 then
       consider_built
         (Expr.mul [ Expr.const c; deeper (Poly.div_scalar_exact p c) ]));
    (* perfect power *)
    (if could_be_perfect_power p then
       match Squarefree.perfect_power_root p with
       | Some (root, k) when not (Poly.is_const root) ->
         consider_built (Expr.pow (root_expr s root) k)
       | Some _ | None -> ());
    if depth < max_depth then begin
      (* division by each divisor, priced from the memo entries of the
         remainder and the quotient, in that order *)
      List.iter
        (fun d ->
          let q, r = Poly.div_rem p d.div in
          if not (Poly.is_zero q) then begin
            let dv = divisor_name s d in
            let ((er, _) as r_entry) = decompose_at (depth + 1) s r in
            let ((eq, _) as q_entry) = decompose_at (depth + 1) s q in
            consider (Division (dv, eq, er)) (division_price q_entry r_entry)
          end)
        s.divs;
      (* common coefficients *)
      (let r = Cce.extract p in
       match r.Cce.groups with
       | [] -> ()
       | groups ->
         consider_built
           (Expr.add
              (List.map
                 (fun (g, b) -> Expr.mul [ Expr.const g; deeper b ])
                 groups
              @ [ deeper r.Cce.residual ])));
      (* the co-kernel with the largest cube *)
      let ks =
        Kernel.kernels p
        |> List.filter (fun (ck, _) -> not (Monomial.is_one ck))
        |> List.stable_sort (fun (ck1, k1) (ck2, k2) ->
               let score (ck, k) = Poly.num_terms k * Monomial.degree ck in
               Stdlib.compare (score (ck2, k2)) (score (ck1, k1)))
      in
      match ks with
      | [] -> ()
      | (ck, k) :: _ ->
        let rest = Poly.sub p (Poly.mul_term Z.one ck k) in
        consider_built
          (Expr.add
             [ Expr.mul (Expr.of_poly (Poly.monomial ck) :: [ deeper k ]);
               deeper rest ])
    end;
    (build !best, !best_cost)
  end

let decompose s p = fst (decompose_at 0 s p)
