(* Alcotest printers shared by the test executables: the library prints its
   values through [to_string] alone, and rationals not at all.  And the
   symbolic decision of function equality over Z_2^m (equal canonical
   forms), with which the tests check a program the engine did not return
   and which is the oracle the point-set certifier is compared against. *)

module Z = Polysynth_zint.Zint
module Q = Polysynth_rat.Qint
module P = Polysynth_poly.Poly
module Mono = Polysynth_poly.Monomial
module Prog = Polysynth_expr.Prog
module Canonical = Polysynth_finite_ring.Canonical

let testable to_string equal =
  Alcotest.testable (fun f x -> Format.pp_print_string f (to_string x)) equal

let zint = testable Z.to_string Z.equal
let poly = testable P.to_string P.equal
let mono = testable Mono.to_string Mono.equal

(* [n/d] in lowest terms, or [n] for an integer *)
let q_to_string q =
  let d = Q.den q in
  let n = Q.to_zint_exn (Q.mul q (Q.of_zint d)) in
  if Z.is_one d then Z.to_string n else Z.to_string n ^ "/" ^ Z.to_string d

let q = testable q_to_string Q.equal

(* do [p] and [q] compute the same bit-vector function on the ring? *)
let equal_functions ctx p q =
  let terms p = Canonical.falling_terms (Canonical.canonicalize ctx p) in
  List.equal
    (fun (c, m) (c', m') -> Z.equal c c' && Mono.equal m m')
    (terms p) (terms q)

(* [p] at [env], reduced into [0, 2^m) *)
let eval_mod ctx p env = Z.erem_pow2 (P.eval env p) (Canonical.out_width ctx)

(* Does [prog] compute [polys] (as bit-vector functions under [ctx])?
   Decided by expanding every output: exact polynomial identity over Z,
   equal canonical forms over the ring. *)
let verify ?ctx polys prog =
  let produced = Prog.to_polys prog in
  List.for_all
    (fun (name, p) ->
      match List.assoc_opt name produced, ctx with
      | None, _ -> false
      | Some q, Some ctx -> equal_functions ctx p q
      | Some q, None -> P.equal p q)
    (Prog.name_outputs polys)

(* The prime rectangles of the kernel-cube matrix of [polys] as
   [Polysynth_cse.Kcm.prime_rectangles] computes them, with each row's
   columns held in a [Set.Make (Int)]: the reference that the matrix's
   own row representation is checked against.  Returns the number of
   columns (distinct signed cubes) and the rectangles as (rows, body,
   value), best value first, at most 64. *)
module IntSet = Set.Make (Int)

let kcm_prime_rectangles polys =
  let rows =
    Array.of_list (List.concat_map Polysynth_cse.Kernel.kernels polys)
  in
  let index = Hashtbl.create 64 and cols = ref [] in
  let index_of (c, m) =
    let key = (Z.to_string c, Mono.to_string m) in
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      Hashtbl.add index key i;
      cols := (c, m) :: !cols;
      i
  in
  let row_cols =
    Array.map
      (fun (_, k) ->
        List.fold_left
          (fun acc t -> IntSet.add (index_of t) acc)
          IntSet.empty (P.terms k))
      rows
  in
  let cols = Array.of_list (List.rev !cols) in
  let rows_of_cols cs =
    List.filter
      (fun i -> IntSet.subset cs row_cols.(i))
      (List.init (Array.length rows) Fun.id)
  in
  let cols_of_rows = function
    | [] -> IntSet.empty
    | first :: rest ->
      List.fold_left
        (fun acc i -> IntSet.inter acc row_cols.(i))
        row_cols.(first) rest
  in
  let seen = Hashtbl.create 64 and out = ref [] in
  let consider cs =
    if IntSet.cardinal cs >= 2 then begin
      let rs = rows_of_cols cs in
      let cs = cols_of_rows rs in
      if List.length rs >= 2 && IntSet.cardinal cs >= 2 then begin
        let key = (rs, IntSet.elements cs) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          let body =
            P.of_terms (List.map (fun i -> cols.(i)) (IntSet.elements cs))
          in
          let value =
            (List.length rs - 1) * Polysynth_expr.Dag.poly_ops body
          in
          out := (rs, body, value) :: !out
        end
      end
    end
  in
  let n = Array.length rows in
  for i = 0 to n - 1 do
    consider row_cols.(i)
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      consider (IntSet.inter row_cols.(i) row_cols.(j))
    done
  done;
  let ranked =
    List.stable_sort (fun (_, _, a) (_, _, b) -> Stdlib.compare b a) !out
  in
  (Array.length cols, List.filteri (fun i _ -> i < 64) ranked)

(* The co-kernel with the largest cube as algebraic division first chose
   it: the first pair of [Kernel.kernels] with a co-kernel other than 1
   among those of the highest score [num_terms k * degree ck].  The
   reference that the single-walk [Kernel.top_kernel] is checked against. *)
let top_kernel p =
  List.fold_left
    (fun best (ck, k) ->
      if Mono.is_one ck then best
      else
        let score = P.num_terms k * Mono.degree ck in
        match best with
        | Some (_, best_score) when best_score >= score -> best
        | Some _ | None -> Some ((ck, k), score))
    None (Polysynth_cse.Kernel.kernels p)
  |> Option.map fst
