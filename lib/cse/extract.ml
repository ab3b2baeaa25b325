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

type item = { name : string; mutable body : Poly.t }

(* Operator count of one body as a flat sum of products.  The greedy loop
   recomputes the cost of every item for each of its ~40 trial rewrites
   per round, but a trial changes only a few bodies — so the per-body
   count, a pure function of the body, is always memoized, keyed by the
   polynomial's (monomial-hash based) hash.  The table is domain-local:
   the engine fans the integrated variants out across domains and each
   keeps its own lock-free table. *)
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
    let n = Dag.total_ops (Dag.tree_counts (Expr.of_poly body)) in
    if Ptbl.length tbl > 65536 then Ptbl.reset tbl;
    Ptbl.add tbl body n;
    n

let clear_cost_memo () =
  Atomic.incr cost_memo_epoch;
  Atomic.set cost_memo_hits 0;
  Atomic.set cost_memo_misses 0

let cost_memo_stats () =
  (Atomic.get cost_memo_hits, Atomic.get cost_memo_misses)

let flat_cost items =
  (* operator count of all bodies as flat sums of products; block variables
     and coefficient literals count as plain operands *)
  List.fold_left (fun acc it -> acc + body_ops it.body) 0 items

(* ---- candidate moves --------------------------------------------------------- *)

(* A candidate is a multi-term body to become a new block (kernels,
   kernel intersections) or a single cube to share. *)
type candidate = Block of Poly.t | Cube of Monomial.t

module PolyMap = Map.Make (Poly)
module MonoSet = Set.Make (Monomial)

let subset_terms small big =
  (* every (coeff, monomial) term of [small] appears in [big] *)
  List.for_all
    (fun (c, m) -> Z.equal (Poly.coeff big m) c)
    (Poly.terms small)

(* sign-aware containment: [Some 1] when d appears verbatim, [Some (-1)]
   when its negation does (systems with mirror symmetry share
   sub-expressions up to sign, e.g. P1 = S + A, P3 = S - A).  Matching up
   to sign is part of the enhanced flow, not of the [13] baseline, so it
   is switchable. *)
let subset_terms_signed ~signs d big =
  if subset_terms d big then Some 1
  else if signs && subset_terms (Poly.neg d) big then Some (-1)
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
  let intersect k k' =
    let common =
      List.filter (fun (c, m) -> Z.equal (Poly.coeff k' m) c) (Poly.terms k)
    in
    if List.length common >= 2 then
      let inter = Poly.of_terms common in
      if not (Poly.equal inter k) && not (Poly.equal inter k') then
        [ norm inter ]
      else []
    else []
  in
  let rec intersections acc = function
    | [] -> acc
    | k :: rest ->
      let acc =
        List.fold_left
          (fun acc k' ->
            intersect k k'
            @ (if signs then intersect k (Poly.neg k') else [])
            @ acc)
          acc rest
      in
      intersections acc rest
  in
  let inters = intersections [] kernels in
  List.map (fun k -> Block k) kernels
  @ List.map (fun k -> Block k) (List.sort_uniq Poly.compare inters)

let candidate_cubes items =
  let monos =
    List.concat_map
      (fun it -> List.map snd (Poly.terms it.body))
      items
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
  let cubes = pairwise MonoSet.empty monos in
  List.map (fun c -> Cube c) (MonoSet.elements cubes)

(* ---- applying a move ---------------------------------------------------------- *)

let rewrite_with_block ~signs block_var d body =
  (* replace every residual occurrence of +-(c*d) inside [body] by
     +-(c * block_var) *)
  let rec go body =
    let usable =
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

let rewrite_with_cube block_var c body =
  Poly.of_terms
    (List.map
       (fun (k, m) ->
         match Monomial.div m c with
         | Some rest -> (k, Monomial.mul rest (Monomial.var block_var))
         | None -> (k, m))
       (Poly.terms body))

(* names of items the candidate body depends on, transitively; rewriting
   those would create a reference cycle between block definitions *)
let dependency_closure items body =
  let bodies = List.map (fun it -> (it.name, it.body)) items in
  let rec go seen frontier =
    match frontier with
    | [] -> seen
    | v :: rest ->
      if List.mem v seen then go seen rest
      else
        let seen = v :: seen in
        (match List.assoc_opt v bodies with
         | Some b -> go seen (Poly.vars b @ rest)
         | None -> go seen rest)
  in
  go [] (Poly.vars body)

let apply_candidate ~signs fresh_name cand items =
  (* returns the new item list (bodies are fresh copies) *)
  let block_body =
    match cand with
    | Block d -> d
    | Cube c -> Poly.monomial c
  in
  let frozen = dependency_closure items block_body in
  let copy = List.map (fun it -> { it with body = it.body }) items in
  List.iter
    (fun it ->
      if not (List.mem it.name frozen) then
        it.body <-
          (match cand with
           | Block d -> rewrite_with_block ~signs fresh_name d it.body
           | Cube c -> rewrite_with_cube fresh_name c it.body))
    copy;
  copy @ [ { name = fresh_name; body = block_body } ]

(* count how many items actually changed; a candidate that rewrites nothing
   is useless even if the cost metric ties *)
let num_rewritten before after =
  List.fold_left2
    (fun acc b a -> if Poly.equal b.body a.body then acc else acc + 1)
    0 before
    (List.filteri (fun i _ -> i < List.length before) after)

(* ---- main loop -------------------------------------------------------------------- *)

let run ?(mode = Coeff_literals) ?(strategy = Greedy) ?(signs = true)
    ?(max_iters = 100) polys =
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
  let block_counter = ref 0 in
  let fresh () =
    incr block_counter;
    Printf.sprintf "%s%d" block_prefix !block_counter
  in
  (* cheap ranking before the exact trial application keeps the loop
     polynomial even on 25-polynomial systems *)
  let estimate instances items cand =
    match cand with
    | Block d ->
      let ops_d = body_ops d in
      let occ =
        List.length
          (List.filter
             (fun (_, _, k) -> subset_terms_signed ~signs d k <> None)
             instances)
      in
      occ * ops_d
    | Cube c ->
      let uses =
        List.fold_left
          (fun acc it ->
            acc
            + List.length
                (List.filter
                   (fun (_, m) -> Monomial.divides c m)
                   (Poly.terms it.body)))
          0 items
      in
      (uses - 1) * (Monomial.degree c - 1)
  in
  let trials_per_round = 40 in
  let rec loop iters items block_order =
    if iters >= max_iters then (items, block_order)
    else begin
      let current_cost = flat_cost items in
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
        List.map (fun cand -> (estimate instances items cand, cand)) candidates
        |> List.filter (fun (est, _) -> est > 0)
        |> List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare b a)
      in
      let shortlisted =
        List.filteri (fun i _ -> i < trials_per_round) ranked
      in
      let name = Printf.sprintf "%s%d" block_prefix (!block_counter + 1) in
      let best =
        List.fold_left
          (fun best (_, cand) ->
            let trial = apply_candidate ~signs name cand items in
            let cost = flat_cost trial in
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
        let _ = fresh () in
        loop (iters + 1) trial (block_order @ [ name ])
    end
  in
  let items, block_names = loop 0 outputs [] in
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
