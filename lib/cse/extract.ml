module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Expr = Polysynth_expr.Expr
module Dag = Polysynth_expr.Dag
module Prog = Polysynth_expr.Prog

type mode = Coeff_literals | Vars_only

type strategy = Greedy | Kcm_rectangles

type result = {
  prog : Prog.t;
  blocks : (string * Poly.t) list;
  output_bodies : (string * Poly.t) list;
}

let block_prefix = "cse_t"

(* ---- coefficient-literal encoding ---------------------------------------- *)

let literal_prefix = '~'

let encode_coeff_literals p =
  Poly.of_terms
    (List.map
       (fun (c, m) ->
         let a = Z.abs c in
         if Z.is_one a then (c, m)
         else
           let sign = if Z.is_negative c then Z.minus_one else Z.one in
           ( sign,
             Monomial.mul m
               (Monomial.var (Printf.sprintf "%c%s" literal_prefix (Z.to_string a)))
           ))
       (Poly.terms p))

let is_literal_var v = String.length v > 0 && v.[0] = literal_prefix

let decode_poly p =
  List.fold_left
    (fun p v ->
      if is_literal_var v then
        Poly.subst v
          (Poly.const (Z.of_string (String.sub v 1 (String.length v - 1))))
          p
      else p)
    p (Poly.vars p)

let decode_expr e =
  Expr.subst
    (fun v ->
      if is_literal_var v then
        Some (Expr.const (Z.of_string (String.sub v 1 (String.length v - 1))))
      else None)
    e

(* ---- work items ------------------------------------------------------------ *)

type item = { name : string; body : Poly.t }

(* Operator count of one body as a flat sum of products; block variables
   and coefficient literals count as plain operands.  The greedy loop
   computes each item's count once per round and reuses it in every trial
   that leaves the body physically unchanged, so a trial counts only the
   bodies it rewrites.  The count is a pure function of the body and is
   always memoized, keyed by the polynomial through [Poly.hash].  The
   table is domain-local: the engine fans the integrated variants out
   across domains and each keeps its own lock-free table. *)
module Ptbl = Hashtbl.Make (Poly)

(* Lifecycle: a domain-local table cannot be cleared from another domain,
   so [clear_cost_memo] bumps a global epoch and every domain's slot
   self-resets on its next access.  The hit/miss counters are global
   atomics rather than per-domain: worker domains are transient (they die
   when a [parallel_map] returns), so domain-local counts would vanish
   with them. *)
let cost_memo_epoch = Atomic.make 0
let cost_memo_hits = Atomic.make 0
let cost_memo_misses = Atomic.make 0

let body_ops_key : (int * int Ptbl.t) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      ref (Atomic.get cost_memo_epoch, Ptbl.create 1024))

let body_ops body =
  let slot = Domain.DLS.get body_ops_key in
  let epoch = Atomic.get cost_memo_epoch in
  let tbl =
    let e, tbl = !slot in
    if e = epoch then tbl
    else begin
      let fresh = Ptbl.create 1024 in
      slot := (epoch, fresh);
      fresh
    end
  in
  match Ptbl.find_opt tbl body with
  | Some n ->
    Atomic.incr cost_memo_hits;
    n
  | None ->
    Atomic.incr cost_memo_misses;
    let n = Dag.tree_ops (Expr.of_poly body) in
    if Ptbl.length tbl > 65536 then Ptbl.reset tbl;
    Ptbl.add tbl body n;
    n

let clear_cost_memo () =
  Atomic.incr cost_memo_epoch;
  Atomic.set cost_memo_hits 0;
  Atomic.set cost_memo_misses 0

let cost_memo_stats () =
  (Atomic.get cost_memo_hits, Atomic.get cost_memo_misses)

(* ---- candidate moves --------------------------------------------------------- *)

(* A candidate is a multi-term body to become a new block (kernels,
   kernel intersections) or a single cube to share. *)
type candidate = Block of Poly.t | Cube of Monomial.t

module PolyMap = Map.Make (Poly)
module MonoSet = Set.Make (Monomial)

(* The term-list merges below walk two polynomials' descending term lists
   once.  [same ~neg c c'] says whether [c'] is [c], or [-c] when [neg]. *)
let same ~neg c c' = if neg then Z.equal c (Z.neg c') else Z.equal c c'

(* every (coeff, monomial) term of [small] appears in [big], with its
   coefficient negated when [neg] *)
let rec subset_terms ~neg small big =
  match small, big with
  | [], _ -> true
  | _ :: _, [] -> false
  | (c, m) :: small', (c', m') :: big' ->
    let cmp = Monomial.compare m m' in
    if cmp = 0 then same ~neg c c' && subset_terms ~neg small' big'
    else cmp < 0 && subset_terms ~neg small big'

(* the terms of [k] that [k'] has too, with its coefficient negated when
   [neg], in [k]'s order *)
let common_terms ~neg k k' =
  let rec go acc k k' =
    match k, k' with
    | [], _ | _, [] -> List.rev acc
    | ((c, m) as t) :: kr, (c', m') :: kr' ->
      let cmp = Monomial.compare m m' in
      if cmp = 0 then go (if same ~neg c c' then t :: acc else acc) kr kr'
      else if cmp > 0 then go acc kr k'
      else go acc k kr'
  in
  go [] k k'

(* sign-aware containment: [Some 1] when d appears verbatim, [Some (-1)]
   when its negation does (systems with mirror symmetry share
   sub-expressions up to sign, e.g. P1 = S + A, P3 = S - A).  Matching up
   to sign is part of the enhanced flow, not of the [13] baseline, so it
   is switchable. *)
let subset_terms_signed ~signs d big =
  let d = Poly.terms d and big = Poly.terms big in
  if subset_terms ~neg:false d big then Some 1
  else if signs && subset_terms ~neg:true d big then Some (-1)
  else None

(* canonical sign for a candidate: positive leading coefficient *)
let normalize_sign p =
  if Poly.is_zero p then p
  else if Z.is_negative (fst (Poly.leading p)) then Poly.neg p
  else p

let kernel_instances items =
  List.concat_map
    (fun it ->
      List.map (fun (ck, k) -> (it, ck, k)) (Kernel.kernels it.body))
    items

let candidate_blocks ~signs instances =
  let norm k = if signs then normalize_sign k else k in
  let grouped =
    List.fold_left
      (fun acc (_, _, k) ->
        PolyMap.update (norm k)
          (function None -> Some 1 | Some n -> Some (n + 1))
          acc)
      PolyMap.empty instances
  in
  let kernels = List.map fst (PolyMap.bindings grouped) in
  (* pairwise term intersections of distinct kernels (up to sign) expose
     shared sub-expressions that are not whole kernels *)
  let intersect ~neg k k' =
    match common_terms ~neg (Poly.terms k) (Poly.terms k') with
    | _ :: _ :: _ as common ->
      let inter = Poly.of_sorted_terms common in
      if not (Poly.equal inter k) && not (Poly.equal inter k') then
        [ norm inter ]
      else []
    | [] | [ _ ] -> []
  in
  let rec intersections acc = function
    | [] -> acc
    | k :: rest ->
      let acc =
        List.fold_left
          (fun acc k' ->
            intersect ~neg:false k k'
            @ (if signs then intersect ~neg:true k k' else [])
            @ acc)
          acc rest
      in
      intersections acc rest
  in
  let inters = intersections [] kernels in
  List.map (fun k -> Block k) kernels
  @ List.map (fun k -> Block k) (List.sort_uniq Poly.compare inters)

(* Every cube of degree >= 2 that is the gcd of two term monomials.  A
   monomial that occurs twice is its own gcd, so the distinct monomials
   are paired once each and the repeated ones seed the set; a monomial of
   degree below 2 has no such gcd with anything. *)
let candidate_cubes items =
  let add (seen, repeated) (_, m) =
    if not (MonoSet.mem m seen) then (MonoSet.add m seen, repeated)
    else if Monomial.degree m >= 2 then (seen, MonoSet.add m repeated)
    else (seen, repeated)
  in
  let seen, repeated =
    List.fold_left
      (fun acc it -> List.fold_left add acc (Poly.terms it.body))
      (MonoSet.empty, MonoSet.empty) items
  in
  let monos =
    List.filter (fun m -> Monomial.degree m >= 2) (MonoSet.elements seen)
  in
  let rec pairwise acc = function
    | [] -> acc
    | m :: rest ->
      let acc =
        List.fold_left
          (fun acc m' ->
            let g = Monomial.gcd m m' in
            if Monomial.degree g >= 2 then MonoSet.add g acc else acc)
          acc rest
      in
      pairwise acc rest
  in
  let cubes = pairwise repeated monos in
  List.map (fun c -> Cube c) (MonoSet.elements cubes)

(* ---- applying a move ---------------------------------------------------------- *)

(* Whether [body] can contain +-(c*d) at all: a kernel keeps the body's
   coefficients and divides its monomials by the co-kernel, so a kernel
   holding +-d needs a body term with coefficient +-(lc d) on a monomial
   that [lm d] divides. *)
let may_contain ~signs d body =
  match Poly.terms d with
  | [] -> true
  | (lc, lm) :: _ ->
    let neg_lc = Z.neg lc in
    List.exists
      (fun (c, m) ->
        (Z.equal c lc || (signs && Z.equal c neg_lc)) && Monomial.divides lm m)
      (Poly.terms body)

let rewrite_with_block ~signs block_var d body =
  (* replace every residual occurrence of +-(c*d) inside [body] by
     +-(c * block_var); a body without one comes back physically unchanged *)
  let rec go body =
    let usable =
      if not (may_contain ~signs d body) then []
      else
        List.filter_map
          (fun (ck, k) ->
            match subset_terms_signed ~signs d k with
            | Some sign -> Some (ck, sign)
            | None -> None)
          (Kernel.kernels body)
    in
    match usable with
    | [] -> body
    | (ck, sign) :: _ ->
      let s = if sign >= 0 then Z.one else Z.minus_one in
      let removed = Poly.sub body (Poly.mul_term s ck d) in
      let replaced =
        Poly.add removed
          (Poly.term s (Monomial.mul ck (Monomial.var block_var)))
      in
      go replaced
  in
  go body

(* only called on a body with a term divisible by [c] *)
let rewrite_with_cube block_var c body =
  Poly.of_terms
    (List.map
       (fun (k, m) ->
         match Monomial.div m c with
         | Some rest -> (k, Monomial.mul rest (Monomial.var block_var))
         | None -> (k, m))
       (Poly.terms body))

(* whether a name is an item the candidate body depends on, transitively;
   rewriting that item would create a reference cycle between block
   definitions.  [bodies] maps the round's item names to their bodies. *)
let dependency_closure bodies body =
  let seen = Hashtbl.create 16 in
  let rec visit v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      match Hashtbl.find_opt bodies v with
      | Some b -> List.iter visit (Poly.vars b)
      | None -> ()
    end
  in
  List.iter visit (Poly.vars body);
  Hashtbl.mem seen

(* the items after the move, in order, then the new block.  Only the
   [holders] (a sublist of [items], in order) can change: every other item
   comes back as it is, exactly as the rewrite would return it. *)
let apply_candidate ~signs bodies fresh_name cand holders items =
  let block_body =
    match cand with
    | Block d -> d
    | Cube c -> Poly.monomial c
  in
  let frozen = dependency_closure bodies block_body in
  let rewrite =
    match cand with
    | Block d -> rewrite_with_block ~signs fresh_name d
    | Cube c -> rewrite_with_cube fresh_name c
  in
  let rec go items holders =
    match items, holders with
    | it :: items, h :: holders' when it == h ->
      (if frozen it.name then it else { it with body = rewrite it.body })
      :: go items holders'
    | it :: items, holders -> it :: go items holders
    | [], _ -> [ { name = fresh_name; body = block_body } ]
  in
  go items holders

(* flat cost of a trial: [costs] are the round's per-item counts, reused
   for every body the move left physically unchanged *)
let trial_cost costs items trial =
  let rec go acc costs items trial =
    match costs, items, trial with
    | n :: costs, it :: items, it' :: trial ->
      go (acc + if it'.body == it.body then n else body_ops it'.body)
        costs items trial
    | [], [], trial ->
      List.fold_left (fun acc it -> acc + body_ops it.body) acc trial
    | _ -> invalid_arg "Extract.trial_cost"
  in
  go 0 costs items trial

(* count how many items actually changed; a candidate that rewrites nothing
   is useless even if the cost metric ties *)
let num_rewritten before after =
  let n = List.length before in
  List.fold_left2
    (fun acc b a -> if Poly.equal b.body a.body then acc else acc + 1)
    0 before
    (List.filteri (fun i _ -> i < n) after)

(* ---- main loop -------------------------------------------------------------------- *)

(* bound on the number of greedy extractions in one run *)
let max_iters = 100

let run ?(mode = Coeff_literals) ?(strategy = Greedy) ?(signs = true) polys =
  let encoded =
    match mode with
    | Coeff_literals -> List.map encode_coeff_literals polys
    | Vars_only -> polys
  in
  let outputs =
    List.mapi
      (fun i p -> { name = Printf.sprintf "P%d" (i + 1); body = p })
      encoded
  in
  (* after block [cse_t<k>], the next block takes the least index above [k]
     whose name is not a variable of the system *)
  let avoid = List.concat_map Poly.vars encoded in
  let rec name_after k =
    let name = Printf.sprintf "%s%d" block_prefix (k + 1) in
    if List.mem name avoid then name_after (k + 1) else (k + 1, name)
  in
  (* cheap ranking before the exact trial application keeps the loop
     polynomial even on 25-polynomial systems.  The scan also yields the
     holders, the items (in order) a trial can rewrite: for a block, those
     with a kernel holding it (the same memoized kernels the rewrite
     reads), for a cube, those with a term it divides. *)
  let keep it holders =
    match holders with h :: _ when h == it -> holders | _ -> it :: holders
  in
  let estimate instances items cand =
    match cand with
    | Block d ->
      let ops_d = body_ops d in
      let occ, holders =
        List.fold_left
          (fun ((occ, holders) as acc) (it, _, k) ->
            match subset_terms_signed ~signs d k with
            | None -> acc
            | Some _ -> (occ + 1, keep it holders))
          (0, []) instances
      in
      (occ * ops_d, List.rev holders)
    | Cube c ->
      let uses, holders =
        List.fold_left
          (fun acc it ->
            List.fold_left
              (fun ((uses, holders) as acc) (_, m) ->
                if Monomial.divides c m then (uses + 1, keep it holders)
                else acc)
              acc (Poly.terms it.body))
          (0, []) items
      in
      ((uses - 1) * (Monomial.degree c - 1), List.rev holders)
  in
  let trials_per_round = 40 in
  let rec loop iters last items block_order =
    if iters >= max_iters then (items, block_order)
    else begin
      let costs = List.map (fun it -> body_ops it.body) items in
      let current_cost = List.fold_left ( + ) 0 costs in
      let bodies = Hashtbl.create 64 in
      List.iter (fun it -> Hashtbl.replace bodies it.name it.body) items;
      let instances = kernel_instances items in
      let block_candidates =
        match strategy with
        | Greedy -> candidate_blocks ~signs instances
        | Kcm_rectangles ->
          List.map
            (fun body -> Block body)
            (Kcm.candidates (List.map (fun it -> it.body) items))
      in
      let candidates = block_candidates @ candidate_cubes items in
      let ranked =
        List.map
          (fun cand ->
            let est, holders = estimate instances items cand in
            (est, (cand, holders)))
          candidates
        |> List.filter (fun (est, _) -> est > 0)
        |> List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare b a)
      in
      let shortlisted =
        List.filteri (fun i _ -> i < trials_per_round) ranked
      in
      let index, name = name_after last in
      let best =
        List.fold_left
          (fun best (_, (cand, holders)) ->
            let trial = apply_candidate ~signs bodies name cand holders items in
            let cost = trial_cost costs items trial in
            if cost < current_cost && num_rewritten items trial >= 1 then
              match best with
              | Some (_, best_cost, _) when best_cost <= cost -> best
              | Some _ | None -> Some (cand, cost, trial)
            else best)
          None shortlisted
      in
      match best with
      | None -> (items, block_order)
      | Some (_, _, trial) ->
        loop (iters + 1) index trial (block_order @ [ name ])
    end
  in
  let items, block_names = loop 0 0 outputs [] in
  let find_item n = List.find (fun it -> it.name = n) items in
  (* bindings must come out in dependency order: a block created early may
     have been rewritten to use a block created later *)
  let block_names =
    let visited = ref [] in
    let rec visit n =
      if not (List.mem n !visited) && List.mem n block_names then begin
        List.iter visit (Poly.vars (find_item n).body);
        visited := !visited @ [ n ]
      end
    in
    List.iter visit block_names;
    !visited
  in
  let blocks =
    List.map (fun n -> (n, decode_poly (find_item n).body)) block_names
  in
  let bindings =
    List.map
      (fun n -> (n, decode_expr (Expr.of_poly (find_item n).body)))
      block_names
  in
  let out_items =
    List.filter
      (fun it -> String.length it.name > 0 && it.name.[0] = 'P')
      items
  in
  let out_exprs =
    List.map (fun it -> (it.name, decode_expr (Expr.of_poly it.body))) out_items
  in
  let output_bodies =
    List.map (fun it -> (it.name, decode_poly it.body)) out_items
  in
  ({ prog = { Prog.bindings; outputs = out_exprs }; blocks; output_bodies }
    : result)
