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

(* The point-set decision procedure as [Polysynth_analysis.Equiv] ran it
   before netlists were evaluated in machine words: every point, modulo
   [2^m] or each prime, through [Netlist.cell_value] in [Zint]s, one
   [(string * Z.t) list] per point.  The reference that the word-form
   certifier's verdicts and counterexamples are checked against. *)
module Equiv = Polysynth_analysis.Equiv
module Netlist = Polysynth_hw.Netlist
module Smarandache = Polysynth_finite_ring.Smarandache

let decide_reference ?ctx polys (side : Netlist.t) =
  let sat_add a b = if a > max_int - b then max_int else a + b in
  let largest n f =
    let v = Netlist.interpret n 0 f in
    List.fold_left (fun acc (_, id) -> max acc v.(id)) 0 n.Netlist.outputs
  in
  let degree weight op arg =
    match (op : Netlist.op) with
    | Input v -> weight v
    | Constant _ -> 0
    | Negate | Cmult _ | Shl _ -> arg 0
    | Add2 | Sub2 -> max (arg 0) (arg 1)
    | Mult2 -> sat_add (arg 0) (arg 1)
  in
  let coefficient_bits op arg =
    let log2 c = Z.num_bits (Z.sub (Z.abs c) Z.one) in
    match (op : Netlist.op) with
    | Input _ -> 0
    | Constant c -> log2 c
    | Negate -> arg 0
    | Add2 | Sub2 -> sat_add 1 (max (arg 0) (arg 1))
    | Mult2 -> sat_add (arg 0) (arg 1)
    | Cmult c -> sat_add (log2 c) (arg 0)
    | Shl k -> sat_add k (arg 0)
  in
  let budget = 4_000_000 and ceiling = 1_000_000 in
  let iter_points ~degree ~v2 axes f =
    let rec go point degree v2 = function
      | [] -> f (List.rev point)
      | (v, top) :: rest ->
        let rec each k =
          let v2k = Smarandache.val2_factorial k in
          if k <= min top degree && v2k <= v2 then begin
            go ((v, Z.of_int k) :: point) (degree - k) (v2 - v2k) rest;
            each (k + 1)
          end
        in
        each 0
    in
    go [] degree v2 axes
  in
  let primes =
    let is_prime n =
      let rec go d = d * d > n || (n mod d <> 0 && go (d + 2)) in
      go 3
    in
    let top = (1 lsl 30) - 35 in
    Seq.cons top (Seq.iterate (fun n -> n - 2) (top - 2) |> Seq.filter is_prime)
  in
  let env_of point v =
    match List.assoc_opt v point with Some x -> x | None -> Z.zero
  in
  let source =
    Netlist.of_prog ~width:0
      (Prog.of_exprs (List.map Polysynth_expr.Expr.of_poly polys))
  in
  let both f = max (largest source f) (largest side f) in
  let vars =
    List.sort_uniq String.compare (Netlist.inputs source @ Netlist.inputs side)
  in
  let d v = both (degree (fun w -> Bool.to_int (String.equal v w))) in
  let degree_cap = both (degree (Fun.const 1)) in
  let axes, v2, moduli, exact =
    match ctx with
    | Some ctx ->
      let m = Canonical.out_width ctx in
      let top v =
        let n = Canonical.var_width ctx v in
        if n < 62 then min (d v) ((1 lsl n) - 1) else d v
      in
      (List.map (fun v -> (v, top v)) vars, m - 1, 1, fun z -> Z.erem_pow2 z m)
    | None ->
      let bits = sat_add 1 (both coefficient_bits) in
      (List.map (fun v -> (v, d v)) vars, max_int, 1 + (bits / 29), Fun.id)
  in
  let cells = Netlist.num_cells source + Netlist.num_cells side in
  let room = budget / max 1 (moduli * cells) in
  let stop = max room ceiling in
  let points = ref 0 in
  (try
     iter_points ~degree:degree_cap ~v2 axes (fun _ ->
         incr points;
         if !points > stop then raise Exit)
   with Exit -> ());
  if !points > room then
    let more = if !points > stop then "more than " else "" in
    let points = min !points stop in
    Equiv.Unknown
      (Printf.sprintf
         "the point set needs %s%d cell evaluations (%s%d points x %d %s x \
          %d cells), past the budget of %d"
         more (points * moduli * cells) more points moduli
         (if moduli = 1 then "modulus" else "moduli")
         cells budget)
  else begin
    let reducers =
      match ctx with
      | Some _ -> [ exact ]
      | None ->
        List.of_seq
          (Seq.map
             (fun p z -> snd (Z.ediv_rem z (Z.of_int p)))
             (Seq.take moduli primes))
    in
    let pairs =
      List.map
        (fun (name, id) -> (name, id, List.assoc_opt name side.outputs))
        source.outputs
    in
    let differ reduce point =
      let env = env_of point in
      let values n =
        Netlist.interpret n Z.zero (fun op arg ->
            Netlist.cell_value ~reduce op env arg)
      in
      let want = values source and have = values side in
      List.find_map
        (fun (output, i, j) ->
          match j with
          | Some j when Z.equal have.(j) want.(i) -> None
          | j ->
            Some
              {
                Equiv.output;
                point;
                expected = want.(i);
                got = Option.map (Array.get have) j;
              })
        pairs
    in
    let exception Differ of Equiv.counterexample in
    try
      iter_points ~degree:degree_cap ~v2 axes (fun point ->
          if List.exists (fun r -> differ r point <> None) reducers then
            raise (Differ (Option.get (differ exact point))));
      Equiv.Verified
    with Differ ce -> Equiv.Refuted ce
  end
