module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Expr = Polysynth_expr.Expr
module Dag = Polysynth_expr.Dag
module Canonical = Polysynth_finite_ring.Canonical
module Squarefree = Polysynth_factor.Squarefree
module Ted = Polysynth_ted.Ted

type semantics = Exact | ModRing

type rep = { label : string; expr : Expr.t; semantics : semantics }

type t = {
  table : Blocktab.t;
  polys : Poly.t array;
  reps : rep list array;
}

let squarefree_rep session p =
  if Poly.is_zero p || Poly.is_const p then None
  else begin
    let f = Squarefree.squarefree p in
    if Squarefree.is_trivial f then None
    else
      Some
        (Expr.mul
           (Expr.const f.Squarefree.unit_part
           :: List.map
                (fun (s, k) -> Expr.pow (Algdiv.decompose session s) k)
                f.Squarefree.factors))
  end

(* fold coefficients into their cheapest representative modulo 2^m
   (references [10, 11]: adding multiples of 2^m never changes the
   bit-vector function, and e.g. 65535*x is one subtraction as -x).
   The fold picks whichever of c mod 2^m and its negative counterpart has
   fewer CSD digits. *)
let coeff_fold_rep ctx session p =
  let m = Canonical.out_width ctx in
  let modulus = Polysynth_zint.Zint.pow2 m in
  let fold c =
    let r = snd (Polysynth_zint.Zint.ediv_rem c modulus) in
    let alt = Polysynth_zint.Zint.sub r modulus in
    if
      Polysynth_hw.Cost.csd_digits alt < Polysynth_hw.Cost.csd_digits r
    then alt
    else r
  in
  let folded =
    Poly.of_terms
      (List.map (fun (c, mono) -> (fold c, mono)) (Poly.terms p))
  in
  if Poly.equal folded p then None
  else Some (Algdiv.decompose session folded)

(* canonicalize groups of terms with the same variable support
   independently, keeping a group in its (decomposed) power form when the
   falling-factorial form is more expensive: the paper's Table 14.2
   decomposition keeps 3z^2 direct while the xy-part becomes
   5*Y3(x)*Y2(y) *)
let canonical_split_rep ctx table session p =
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (c, m) ->
      let key = Polysynth_poly.Monomial.vars m in
      if not (Hashtbl.mem groups key) then order := key :: !order;
      let prev =
        match Hashtbl.find_opt groups key with
        | Some q -> q
        | None -> Poly.zero
      in
      Hashtbl.replace groups key (Poly.add prev (Poly.term c m)))
    (Poly.terms p);
  let keys = List.rev !order in
  if List.length keys <= 1 then None
  else begin
    let part key =
      let q = Hashtbl.find groups key in
      let canonical = Canonical_rep.rep ctx table q in
      let plain = Algdiv.decompose session q in
      if Dag.tree_ops canonical < Dag.tree_ops plain then canonical else plain
    in
    Some (Expr.add (List.map part keys))
  end

let cce_rep session p =
  let r = Cce.extract p in
  if r.Cce.groups = [] then None
  else
    Some
      (Expr.add
         (List.map
            (fun (g, b) ->
              Expr.mul [ Expr.const g; Algdiv.decompose session b ])
            r.Cce.groups
         @ [ Algdiv.decompose session r.Cce.residual ]))

let dedup reps =
  let rec go seen = function
    | [] -> []
    | r :: rest ->
      if List.exists (fun r' -> Expr.equal r'.expr r.expr) seen then go seen rest
      else r :: go (r :: seen) rest
  in
  go [] reps

let build ?ctx ?max_blocks polys =
  let table =
    Blocktab.create
      ~avoid:(List.sort_uniq String.compare (List.concat_map Poly.vars polys))
      ()
  in
  let divisors = Blocks.discover ?max_blocks polys in
  (* one TED manager for the whole system: sub-functions shared across
     polynomials land on shared nodes, and decompose emits identical
     sub-expressions for them, which the DAG then merges *)
  let ted_manager = Ted.create () in
  (* one algebraic-division session for the whole system, filled in a
     fixed order (polynomials in input order, builders as below): the SG
     banks' shifted and symmetric copies reuse each other's quotients, and
     the fixed order keeps the memo deterministic *)
  let session = Algdiv.make_session table ~divisors in
  let reps_of p =
    let exact label expr = Some { label; expr; semantics = Exact } in
    let mod_ring label expr = Some { label; expr; semantics = ModRing } in
    let with_ctx f = match ctx with Some ctx -> f ctx | None -> None in
    let builders =
      [
        (fun () -> exact "direct" (Expr.of_poly p));
        (fun () -> exact "horner" (Horner.rep p));
        (fun () -> Option.bind (squarefree_rep session p) (exact "sqfree"));
        (fun () ->
          with_ctx (fun ctx ->
              mod_ring "canonical" (Canonical_rep.rep ctx table p)));
        (fun () ->
          with_ctx (fun ctx ->
              Option.bind
                (canonical_split_rep ctx table session p)
                (mod_ring "canonical_split")));
        (fun () ->
          with_ctx (fun ctx ->
              Option.bind (coeff_fold_rep ctx session p)
                (mod_ring "coeff_fold")));
        (fun () -> Option.bind (cce_rep session p) (exact "cce"));
        (fun () -> exact "algdiv" (Algdiv.decompose session p));
        (fun () ->
          exact "ted" (Ted.decompose ted_manager (Ted.of_poly ted_manager p)));
      ]
    in
    (* the builders run last to first ([fold_right] calls [build] only
       after the rest of the list is built): [algdiv] memoizes [p] at full
       depth before [cce], [coeff_fold], [canonical_split] and [sqfree]
       look up its parts, and the blocks are named in that order.  Running
       them first to last changes Mibench's lists (area 2152 -> 2480). *)
    dedup
      (List.fold_right
         (fun build acc ->
           match build () with Some r -> r :: acc | None -> acc)
         builders [])
  in
  {
    table;
    polys = Array.of_list polys;
    reps = Array.of_list (List.map reps_of polys);
  }

let num_combinations t =
  Array.fold_left
    (fun acc reps ->
      let n = List.length reps in
      if acc > max_int / (max n 1) then max_int else acc * n)
    1 t.reps
