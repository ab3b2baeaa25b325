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

(* Dividing every term by the same cube is a strictly order-preserving
   monomial map (the graded-lex order is compatible with multiplication),
   so the quotient term list below is already sorted and duplicate-free:
   [Poly.of_sorted_terms] skips the hashtable-and-sort of [Poly.of_terms]. *)
let rec divide_terms c acc = function
  | [] -> List.rev acc
  | (k, m) :: rest -> (
    match Monomial.div m c with
    | Some m' -> divide_terms c ((k, m') :: acc) rest
    | None -> divide_terms c acc rest)

let divide_cube p c =
  if Monomial.is_one c then p
  else Poly.of_sorted_terms (divide_terms c [] (Poly.terms p))

module PolySet = Set.Make (struct
  type t = Monomial.t * Poly.t

  let compare (c1, k1) (c2, k2) =
    let c = Monomial.compare c1 c2 in
    if c <> 0 then c else Poly.compare k1 k2
end)

(* Recursive kernelling, folded over every (co-kernel, kernel) pair it
   reaches (a pair may be reached twice).  [vars] is the indexed literal
   order; at level [j] only literals of index >= j are divided out, and a
   candidate whose extracted cube re-introduces an earlier literal is
   skipped because the same kernel was already produced along that
   literal's branch. *)
module Symtab = Polysynth_poly.Symtab

(* the number of terms that mention the variable [id], from [n] *)
let rec count_mentions id n = function
  | [] -> n
  | (_, m) :: rest ->
    count_mentions id (if Monomial.mentions_id id m then n + 1 else n) rest

(* whether a variable of [ids] from [i] has an index below [k] *)
let rec any_earlier (index : int array) k (ids : int array) i =
  i < Array.length ids && (index.(ids.(i)) < k || any_earlier index k ids (i + 1))

let fold visit init p =
  if Poly.is_zero p then init
  else begin
    (* the indexed literal order, as pre-interned ids: the recursion only
       touches integers from here on *)
    let vars = Array.of_list (List.map Symtab.intern (Poly.vars p)) in
    let index = Array.make (Symtab.size ()) max_int in
    Array.iteri (fun i id -> index.(id) <- i) vars;
    (* one closure for the whole fold: [explore_from] walks the literals
       of index >= [k] itself, with no per-node closure *)
    let rec explore acc j cokernel pol =
      let acc = if Poly.num_terms pol >= 2 then visit acc cokernel pol else acc in
      explore_from acc cokernel pol j
    and explore_from acc cokernel pol k =
      if k >= Array.length vars then acc
      else
        let id = vars.(k) in
        let acc =
          if count_mentions id 0 (Poly.terms pol) < 2 then acc
          else
            let f = divide_cube pol (Monomial.var_of_id id) in
            if Poly.num_terms f < 2 then acc
            else
              let c = largest_cube f in
              if any_earlier index k (Monomial.var_ids c) 0 then acc
              else
                explore acc k
                  (Monomial.mul cokernel (Monomial.mul (Monomial.var_of_id id) c))
                  (divide_cube f c)
        in
        explore_from acc cokernel pol (k + 1)
    in
    let c0 = largest_cube p in
    explore init 0 c0 (divide_cube p c0)
  end

(* Folded directly, past the memo.  A co-kernel determines its kernel
   (the terms it divides, divided by it), so among the highest scores the
   smallest co-kernel is the first pair of them in [kernels]. *)
let top_kernel p =
  fold
    (fun best ck k ->
      if Monomial.is_one ck then best
      else
        let score = Poly.num_terms k * Monomial.degree ck in
        match best with
        | Some (bck, _, bs)
          when bs > score || (bs = score && Monomial.compare bck ck <= 0) ->
          best
        | Some _ | None -> Some (ck, k, score))
    None p
  |> Option.map (fun (ck, k, _) -> (ck, k))

let kernels p =
  match Memo.find kernel_memo p with
  | Some ks -> ks
  | None ->
    let ks =
      PolySet.elements
        (fold (fun s ck k -> PolySet.add (ck, k) s) PolySet.empty p)
    in
    Memo.add kernel_memo p ks;
    ks
