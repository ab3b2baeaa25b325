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

(* A memo entry is a decomposition's operator count, whether it is
   scaled (see the prices below), and the decomposition, built on first
   use: most entries are never read by a winner.  A lazy value only forces
   other lazy values and stays inside the session, which one domain fills;
   [decompose] returns a forced expression. *)
type entry = { cost : int; scaled : bool; expr : Expr.t Lazy.t }

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

(* Each price is the [Dag.tree_ops] count of a candidate as the smart
   constructors build it, and whether it is scaled: under any negation, a
   product with a constant factor, into which [Expr.mul] merges a constant
   [|c| > 1] with no multiplication added.  Otherwise a product adds one
   multiplication, but [dv * (+-1)] folds to [+-dv]; only the constant
   +-1 decomposes to +-1, and only 0 to 0.  [Expr.mul] may group equal
   factors, here only variables and powers of variables, and [k] copies of
   [x^a] cost [k*a - 1] either way.  [Expr.add]'s flattening keeps the
   count, and only its last operand can be a constant: a 0 is dropped. *)
let content_price (ce, se) = ((if se then ce else ce + 1), true)

(* [Expr.add (products @ [er])], over non-constant products *)
let sum_price products (r, cr) =
  let zero = Poly.is_zero r in
  let base = if zero then cr - 1 else cr in
  ( List.fold_left (fun acc (c, _) -> acc + c + 1) base products,
    zero && match products with [ (_, s) ] -> s | _ -> false )

let is_unit q =
  match Poly.to_const_opt q with Some c -> Z.is_one (Z.abs c) | None -> false

(* [Expr.add [Expr.mul [Expr.var dv; eq]; er]] *)
let division_price (q, cq) (r, cr) =
  cq + cr + (if is_unit q then 0 else 1) + if Poly.is_zero r then 0 else 1

let cce_price groups r = sum_price (List.map content_price groups) r
let cokernel_price ck (kc, sk) r = sum_price [ (Monomial.degree ck + kc, sk) ] r

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
       then overwrite with the winner.  The direct form is priced from the
       terms ([Dag.poly_ops] is [tree_ops] of [Expr.of_poly]). *)
    let scaled =
      match Poly.terms p with
      | [ (c, m) ] -> not (Monomial.is_one m || Z.is_one (Z.abs c))
      | _ -> false
    in
    let direct =
      { cost = Dag.poly_ops p; scaled; expr = lazy (Expr.of_poly p) }
    in
    Memo.replace s.memo key direct;
    let result = choose depth s p direct in
    Memo.replace s.memo key result;
    result

(* The candidates are tried in a fixed order and a later one wins only if
   it is strictly cheaper.  Each is priced from the memo entries of its
   parts and built only if it wins and is read.  The memo keeps the first
   call to reach a polynomial, so the order of the [deeper] calls (and of
   the divisor naming) fixes the result and must not change. *)
and choose depth s p direct =
  if Poly.is_zero p || Poly.is_const p then direct
  else begin
    let deeper p = decompose_at (depth + 1) s p in
    let force e = Lazy.force e.expr in
    let best = ref direct in
    let beats cost = cost < !best.cost in
    (* content *)
    (let c = content_factor p in
     if (not (Z.is_one (Z.abs c))) && Poly.num_terms p >= 2 then
       let e = deeper (Poly.div_scalar_exact p c) in
       let cost, scaled = content_price (e.cost, e.scaled) in
       if beats cost then
         let expr = lazy (Expr.mul [ Expr.const c; force e ]) in
         best := { cost; scaled; expr });
    (* perfect power, built here as [root_expr] names its divisor: a power
       is never a product, so it is not scaled *)
    (if could_be_perfect_power p then
       match Squarefree.perfect_power_root p with
       | Some (root, k) when not (Poly.is_const root) ->
         let e = Expr.pow (root_expr s root) k in
         let cost = Dag.tree_ops e in
         if beats cost then
           best := { cost; scaled = false; expr = Lazy.from_val e }
       | Some _ | None -> ());
    if depth < max_depth then begin
      (* division by each divisor: the remainder is decomposed before the
         quotient *)
      List.iter
        (fun d ->
          let q, r = Poly.div_rem p d.div in
          if not (Poly.is_zero q) then begin
            let dv = divisor_name s d in
            let er = deeper r in
            let eq = deeper q in
            let cost = division_price (q, eq.cost) (r, er.cost) in
            if beats cost then
              let scaled =
                Poly.is_zero r && (not (is_unit q))
                && (eq.scaled || Poly.is_const q)
              in
              let expr =
                lazy (Expr.add [ Expr.mul [ Expr.var dv; force eq ]; force er ])
              in
              best := { cost; scaled; expr }
          end)
        s.divs;
      (* common coefficients: the residual is decomposed before the
         groups *)
      (let r = Cce.extract p in
       match r.Cce.groups with
       | [] -> ()
       | groups ->
         let er = deeper r.Cce.residual in
         let parts = List.map (fun (g, b) -> (g, deeper b)) groups in
         let prices = List.map (fun (_, e) -> (e.cost, e.scaled)) parts in
         let cost, scaled = cce_price prices (r.Cce.residual, er.cost) in
         if beats cost then
           let part (g, e) = Expr.mul [ Expr.const g; force e ] in
           let expr = lazy (Expr.add (List.map part parts @ [ force er ])) in
           best := { cost; scaled; expr });
      (* the co-kernel with the largest cube: [rest] is decomposed before
         the kernel *)
      match Kernel.top_kernel p with
      | None -> ()
      | Some (ck, k) ->
        let rest = Poly.sub p (Poly.mul_term Z.one ck k) in
        let erest = deeper rest in
        let ek = deeper k in
        let cost, scaled =
          cokernel_price ck (ek.cost, ek.scaled) (rest, erest.cost)
        in
        if beats cost then
          let ck = Expr.of_poly (Poly.monomial ck) in
          let expr =
            lazy (Expr.add [ Expr.mul [ ck; force ek ]; force erest ])
          in
          best := { cost; scaled; expr }
    end;
    !best
  end

let decompose s p = Lazy.force (decompose_at 0 s p).expr
