module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial

(* ---- memo table --------------------------------------------------------- *)

(* The extraction loop (Extract.run) re-kernels every work-item body each
   round, and [rewrite_with_block] re-kernels the body after every rewrite
   — but most bodies are unchanged between calls.  Kernelling is the hot
   stage, so [kernels] is memoized here, keyed by the polynomial itself
   through [Poly.hash] (every term's coefficient and monomial, mixed so
   that the low bits spread), in a bounded FIFO table shared across
   domains (Polysynth_zint.Memo).

   Kernelling is a pure function of the polynomial, so the memo is always
   on.  Its hits/misses are the engine trace's ["kernel"] table, and
   [Engine.clear_cache] clears it too. *)
module Memo = Polysynth_zint.Memo.Make (Poly)

let kernel_memo : (Monomial.t * Poly.t) list Memo.t = Memo.create 8192
let clear_cache () = Memo.clear kernel_memo
let cache_stats () = Memo.stats kernel_memo

(* ---- cubes --------------------------------------------------------------- *)

let largest_cube p =
  match Poly.terms p with
  | [] -> Monomial.one
  | (_, m) :: rest ->
    let rec go acc = function
      | [] -> acc
      | (_, m') :: tl ->
        if Monomial.is_one acc then acc else go (Monomial.gcd acc m') tl
    in
    go m rest

let is_cube_free p = Monomial.is_one (largest_cube p)

(* Dividing every term by the same cube is a strictly order-preserving
   monomial map (the graded-lex order is compatible with multiplication),
   so the quotient term lists below are already sorted and duplicate-free:
   [Poly.of_sorted_terms] skips the hashtable-and-sort of [Poly.of_terms]. *)

let cube_free_part p =
  let c = largest_cube p in
  if Monomial.is_one c then p
  else
    Poly.of_sorted_terms
      (List.map
         (fun (k, m) ->
           match Monomial.div m c with
           | Some m' -> (k, m')
           | None -> assert false)
         (Poly.terms p))

let divide_cube p c =
  if Monomial.is_one c then p
  else
    Poly.of_sorted_terms
      (List.filter_map
         (fun (k, m) ->
           match Monomial.div m c with
           | Some m' -> Some (k, m')
           | None -> None)
         (Poly.terms p))

module PolySet = Set.Make (struct
  type t = Monomial.t * Poly.t

  let compare (c1, k1) (c2, k2) =
    let c = Monomial.compare c1 c2 in
    if c <> 0 then c else Poly.compare k1 k2
end)

(* Recursive kernelling.  [vars] is the indexed literal order; at level
   [j] only literals of index >= j are divided out, and a candidate whose
   extracted cube re-introduces an earlier literal is skipped because the
   same kernel was already produced along that literal's branch. *)
module Symtab = Polysynth_poly.Symtab

let kernels_raw p =
  if Poly.is_zero p then []
  else begin
    (* the indexed literal order, as pre-interned ids: the recursion only
       touches integers from here on *)
    let vars = Array.of_list (List.map Symtab.intern (Poly.vars p)) in
    let index = Array.make (Symtab.size ()) max_int in
    Array.iteri (fun i id -> index.(id) <- i) vars;
    let acc = ref PolySet.empty in
    let consider cokernel kernel =
      if Poly.num_terms kernel >= 2 then
        acc := PolySet.add (cokernel, kernel) !acc
    in
    let rec explore j cokernel pol =
      consider cokernel pol;
      Array.iteri
        (fun k id ->
          if k >= j then begin
            let in_terms =
              List.fold_left
                (fun n (_, m) -> if Monomial.mentions_id id m then n + 1 else n)
                0 (Poly.terms pol)
            in
            if in_terms >= 2 then begin
              let f = divide_cube pol (Monomial.var_of_id id) in
              if Poly.num_terms f >= 2 then begin
                let c = largest_cube f in
                let f1 = divide_cube f c in
                let earlier_literal =
                  Array.exists (fun id' -> index.(id') < k) (Monomial.var_ids c)
                in
                if not earlier_literal then
                  explore k
                    (Monomial.mul cokernel
                       (Monomial.mul (Monomial.var_of_id id) c))
                    f1
              end
            end
          end)
        vars
    in
    let c0 = largest_cube p in
    let p0 = divide_cube p c0 in
    explore 0 c0 p0;
    PolySet.elements !acc
  end

let kernels p =
  match Memo.find kernel_memo p with
  | Some ks -> ks
  | None ->
    let ks = kernels_raw p in
    Memo.add kernel_memo p ks;
    ks
