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

(* A memo entry is a decomposition's operator count and the
   decomposition, built on first use: most entries are never read by a
   winner or a built candidate.  The lazy values stay inside the session,
   which one domain fills; [decompose] returns a forced expression. *)
type entry = { cost : int; expr : Expr.t Lazy.t }

type session = {
  table : Blocktab.t;
  divs : divisor list;
  memo : entry Memo.t;
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

(* What [Dag.tree_ops] gives the division candidate built from the
   decompositions of [q] and [r]: the smart constructors fold
   [dv * (+-1)] to [+-dv] and [m + 0] to [m], and otherwise add one
   product and one sum to their operands' counts.  Only the constant +-1
   decomposes to +-1, and only 0 to 0.  The product may merge [dv] with a
   [dv] factor of the quotient's decomposition into a power, which costs
   the same; no decomposition holds a product with a repeated factor that
   is not a power of a variable, whose merging would cost less. *)
let division_price (q, cq) (r, cr) =
  let unit_q =
    match Poly.to_const_opt q with
    | Some c -> Z.is_one (Z.abs c)
    | None -> false
  in
  cq + cr + (if unit_q then 0 else 1) + if Poly.is_zero r then 0 else 1

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

(* the co-kernel with the largest cube: the first of the highest score
   [num_terms k * degree ck] among the kernels with a co-kernel other than
   1 *)
let top_kernel p =
  List.fold_left
    (fun best (ck, k) ->
      if Monomial.is_one ck then best
      else
        let score = Poly.num_terms k * Monomial.degree ck in
        match best with
        | Some (_, best_score) when best_score >= score -> best
        | Some _ | None -> Some ((ck, k), score))
    None (Kernel.kernels p)
  |> Option.map fst

let rec decompose_at depth s p =
  let key = { Key.poly = p; hash = Poly.hash p } in
  match Memo.find_opt s.memo key with
  | Some entry -> entry
  | None ->
    (* break potential cycles defensively: memoize the direct form first,
       then overwrite with the winner.  The direct form is priced from the
       terms ([Dag.poly_ops] is [tree_ops] of [Expr.of_poly]). *)
    let direct = { cost = Dag.poly_ops p; expr = lazy (Expr.of_poly p) } in
    Memo.replace s.memo key direct;
    let result = choose depth s p direct in
    Memo.replace s.memo key result;
    result

(* The candidates are tried in a fixed order and a later one wins only if
   it is strictly cheaper.  The memo keeps the first call to reach a
   polynomial, so the order of the [deeper] calls (and of the divisor
   naming) fixes the result and must not change. *)
and choose depth s p direct =
  if Poly.is_zero p || Poly.is_const p then direct
  else begin
    let deeper p = Lazy.force (decompose_at (depth + 1) s p).expr in
    let best = ref direct in
    let beats cost = cost < !best.cost in
    let consider_built e =
      let cost = Dag.tree_ops e in
      if beats cost then best := { cost; expr = Lazy.from_val e }
    in
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
         remainder and the quotient, in that order, and built only if it
         is read *)
      List.iter
        (fun d ->
          let q, r = Poly.div_rem p d.div in
          if not (Poly.is_zero q) then begin
            let dv = divisor_name s d in
            let er = decompose_at (depth + 1) s r in
            let eq = decompose_at (depth + 1) s q in
            let cost = division_price (q, eq.cost) (r, er.cost) in
            if beats cost then
              best :=
                {
                  cost;
                  expr =
                    lazy
                      (Expr.add
                         [ Expr.mul [ Expr.var dv; Lazy.force eq.expr ];
                           Lazy.force er.expr ]);
                }
          end)
        s.divs;
      (* common coefficients: the residual is decomposed before the
         groups *)
      (let r = Cce.extract p in
       match r.Cce.groups with
       | [] -> ()
       | groups ->
         let residual = deeper r.Cce.residual in
         let parts =
           List.map (fun (g, b) -> Expr.mul [ Expr.const g; deeper b ]) groups
         in
         consider_built (Expr.add (parts @ [ residual ])));
      (* the co-kernel with the largest cube: [rest] is decomposed before
         the kernel *)
      match top_kernel p with
      | None -> ()
      | Some (ck, k) ->
        let rest = deeper (Poly.sub p (Poly.mul_term Z.one ck k)) in
        let k = deeper k in
        consider_built
          (Expr.add [ Expr.mul [ Expr.of_poly (Poly.monomial ck); k ]; rest ])
    end;
    !best
  end

let decompose s p = Lazy.force (decompose_at 0 s p).expr
