module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Expr = Polysynth_expr.Expr
module Prog = Polysynth_expr.Prog
module Netlist = Polysynth_hw.Netlist
module Canonical = Polysynth_finite_ring.Canonical
module Smarandache = Polysynth_finite_ring.Smarandache

type counterexample = {
  output : string;
  point : (string * Z.t) list;
  expected : Z.t;
  got : Z.t option;
}

type cert = Verified | Refuted of counterexample | Unknown of string

let cert_label = function
  | Verified -> "verified"
  | Refuted _ -> "refuted"
  | Unknown _ -> "unknown"

let point_to_string point =
  match point with
  | [] -> "the empty assignment"
  | _ ->
    String.concat ", "
      (List.map (fun (v, x) -> Printf.sprintf "%s=%s" v (Z.to_string x)) point)

let cert_to_string = function
  | Verified -> "verified"
  | Refuted ce ->
    Printf.sprintf "refuted: at %s, %s expects %s but the program computes %s"
      (point_to_string ce.point) ce.output (Z.to_string ce.expected)
      (match ce.got with Some g -> Z.to_string g | None -> "nothing (missing)")
  | Unknown reason -> "unknown: " ^ reason

let cert_to_json = function
  | Verified -> {|{"status":"verified"}|}
  | Refuted ce ->
    Printf.sprintf
      {|{"status":"refuted","counterexample":{"output":%s,"point":{%s},"expected":%s,"got":%s}}|}
      (Diag.json_string ce.output)
      (String.concat ","
         (List.map
            (fun (v, x) ->
              Printf.sprintf "%s:%s" (Diag.json_string v)
                (Diag.json_string (Z.to_string x)))
            ce.point))
      (Diag.json_string (Z.to_string ce.expected))
      (match ce.got with
       | Some g -> Diag.json_string (Z.to_string g)
       | None -> "null")
  | Unknown reason ->
    Printf.sprintf {|{"status":"unknown","reason":%s}|}
      (Diag.json_string reason)

let env_of point v =
  match List.assoc_opt v point with Some x -> x | None -> Z.zero

(* ---- passes over the cells --------------------------------------------- *)

(* the largest result of [Netlist.interpret n 0 f] at an output *)
let largest n f =
  let v = Netlist.interpret n 0 f in
  List.fold_left (fun acc (_, id) -> max acc v.(id)) 0 n.Netlist.outputs

let sat_add a b = if a > max_int - b then max_int else a + b

(* a bound on the degree of every output, an input [v] counting
   [weight v] *)
let degree weight op arg =
  match (op : Netlist.op) with
  | Input v -> weight v
  | Constant _ -> 0
  | Negate | Cmult _ | Shl _ -> arg 0
  | Add2 | Sub2 -> max (arg 0) (arg 1)
  | Mult2 -> sat_add (arg 0) (arg 1)

(* a [b] with [2^b] at least the output's value with |constants|, every
   input at 1 and [Sub2] read as [Add2], which bounds the sum of the
   absolute values of its expansion's coefficients *)
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

(* ---- the point set ------------------------------------------------------ *)

(* The most cell evaluations (points times moduli times the cells of both
   sides) one certificate may spend: in machine words at most about
   0.06 s on one Xeon core (x^1400 + x exact, 3 925 602 evaluations,
   takes 0.05 s), and about 0.5 s in the Zints of a ring wider than 62
   bits (the product of 15 variables modulo 2^64, 1 900 544 evaluations,
   takes 0.24 s).  The Table 14.3, examples/data, test/data, fuzz and
   benchmark certificates need at most 3 712, and the tests' fixed
   systems at most 17 442, for (x+y)^17 exact; x^1000 + x exact needs
   2 004 002, while x^2000 + x exact (8 008 002) and the product of 17
   variables (2^17 points of 66 cells) pass it.  Points are counted up to
   [ceiling], or further if the budget allows. *)
let budget = 4_000_000
let ceiling = 1_000_000

(* [f k] on every point [k] with [k.(i) <= tops.(i)], [sum k.(i) <= degree]
   and [sum v2 (k.(i)!) <= v2], in lexicographic order; [k] is one array,
   rewritten from point to point *)
let iter_points ~degree ~v2 tops f =
  let n = Array.length tops in
  let k = Array.make n 0 in
  let rec go i degree v2 =
    if i = n then f k
    else
      let rec each j =
        let v2j = Smarandache.val2_factorial j in
        if j <= min tops.(i) degree && v2j <= v2 then begin
          k.(i) <- j;
          go (i + 1) (degree - j) (v2 - v2j);
          each (j + 1)
        end
      in
      each 0
  in
  go 0 degree v2

(* the primes below 2^30, from the top: 2^30 - 35 is the largest, and
   nearly every certificate needs no other, so only the rest are found by
   trial division *)
let primes =
  let is_prime n =
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 2)) in
    go 3
  in
  let top = (1 lsl 30) - 35 in
  Seq.cons top (Seq.iterate (fun n -> n - 2) (top - 2) |> Seq.filter is_prime)

(* ---- the decision procedure --------------------------------------------- *)

(* Write the difference of the two sides as [sum_k c_k * Y_k], with [Y_k]
   the falling factorials: [Y_k(a) = 0] unless [k <= a] componentwise,
   and [Y_k(a) = C(a, k) * prod k_i!].  On a downset S that holds every
   [k] with a nonzero term, the values of the difference are triangular
   in the [c_k * prod k_i!], so they all vanish only if every term does.
   Every [k] with a term has [k_i <= d_i] and [sum k_i <= D], with [d_i]
   and [D] the per-variable and total degree bounds.
   - Ring: a term with [v2 (prod k_i!) >= m], or some [k_i >= 2^n_i], is
     the zero function, so S = {k : k_i <= d_i, sum k_i <= D,
     k_i < 2^n_i, v2 (prod k_i!) < m}.
   - Exact: S = {k : k_i <= d_i, sum k_i <= D}.  A prime [p] above every
     [d_i] divides no [prod k_i!], so vanishing on S modulo [p] makes [p]
     divide every coefficient; primes whose product passes twice the
     coefficient bound leave only zero.
   Each side is evaluated in machine words ([Netlist.compile]) modulo
   [2^m] for [m <= 62] and modulo each prime; a wider ring runs through
   [Netlist.cell_value] in [Zint]s, which also rebuilds the exact values
   of a counterexample.
   [side]'s outputs are paired with [polys] by name; the widths of the
   netlists are not read. *)
let decide ?ctx polys (side : Netlist.t) =
  let source =
    Netlist.of_prog ~width:0 (Prog.of_exprs (List.map Expr.of_poly polys))
  in
  let both f = max (largest source f) (largest side f) in
  let vars =
    List.sort_uniq String.compare (Netlist.inputs source @ Netlist.inputs side)
  in
  let d v = both (degree (fun w -> Bool.to_int (String.equal v w))) in
  let degree_cap = both (degree (Fun.const 1)) in
  (* S = {k : k_v <= top_v for the [tops] of [vars], sum k_v <= D,
          sum v2 (k_v!) <= v2}, checked modulo [moduli] numbers: [words]
     when they fit a machine word, [exact] otherwise; [exact] also
     rebuilds a counterexample *)
  let tops, v2, moduli, words, exact =
    match ctx with
    | Some ctx ->
      let m = Canonical.out_width ctx in
      let top v =
        let n = Canonical.var_width ctx v in
        if n < 62 then min (d v) ((1 lsl n) - 1) else d v
      in
      ( List.map top vars,
        m - 1,
        1,
        (if m <= 62 then [ Netlist.Pow2 m ] else []),
        fun z -> Z.erem_pow2 z m )
    | None ->
      (* each coefficient of the difference is at most 2^bits, and
         [1 + bits / 29] primes above 2^29 pass 2^(bits + 1) *)
      let bits = sat_add 1 (both coefficient_bits) in
      let moduli = 1 + (bits / 29) in
      ( List.map d vars,
        max_int,
        moduli,
        List.of_seq
          (Seq.map (fun p -> Netlist.Prime p) (Seq.take moduli primes)),
        Fun.id )
  in
  let tops = Array.of_list tops in
  let cells = Netlist.num_cells source + Netlist.num_cells side in
  let room = budget / max 1 (moduli * cells) in
  let stop = max room ceiling in
  let points = ref 0 in
  (try
     iter_points ~degree:degree_cap ~v2 tops (fun _ ->
         incr points;
         if !points > stop then raise Exit)
   with Exit -> ());
  if !points > room then
    let more = if !points > stop then "more than " else "" in
    let points = min !points stop in
    Unknown
      (Printf.sprintf
         "the point set needs %s%d cell evaluations (%s%d points x %d %s x \
          %d cells), past the budget of %d"
         more (points * moduli * cells) more points moduli
         (if moduli = 1 then "modulus" else "moduli")
         cells budget)
  else begin
    let pairs =
      List.map
        (fun (name, id) -> (name, id, List.assoc_opt name side.outputs))
        source.outputs
    in
    (* the first output on which the sides differ at [point], in [Zint]s *)
    let differ point =
      let env = env_of point in
      let values n =
        Netlist.interpret n Z.zero (fun op arg ->
            Netlist.cell_value ~reduce:exact op env arg)
      in
      let want = values source and have = values side in
      List.find_map
        (fun (output, i, j) ->
          match j with
          | Some j when Z.equal have.(j) want.(i) -> None
          | j ->
            Some
              {
                output;
                point;
                expected = want.(i);
                got = Option.map (Array.get have) j;
              })
        pairs
    in
    let point_of k = List.mapi (fun i v -> (v, Z.of_int k.(i))) vars in
    (* do the sides differ at [k]?  In machine words, one modulus after
       another, when they fit; [-1] stands for a missing output *)
    let differs =
      match words with
      | [] -> fun k -> Option.is_some (differ (point_of k))
      | words ->
        let compiled =
          List.map
            (fun modulus ->
              ( Netlist.compile modulus ~inputs:vars source,
                Netlist.compile modulus ~inputs:vars side ))
            words
        in
        let want = Array.make (Netlist.num_cells source) 0 in
        let have = Array.make (Netlist.num_cells side) 0 in
        let wanted = Array.of_list (List.map (fun (_, i, _) -> i) pairs) in
        let had =
          Array.of_list
            (List.map (fun (_, _, j) -> Option.value j ~default:(-1)) pairs)
        in
        let rec differ_from o =
          o < Array.length wanted
          && (had.(o) < 0
             || have.(had.(o)) <> want.(wanted.(o))
             || differ_from (o + 1))
        in
        let rec any k = function
          | [] -> false
          | (source, side) :: rest ->
            Netlist.eval_words source k want;
            Netlist.eval_words side k have;
            differ_from 0 || any k rest
        in
        fun k -> any k compiled
    in
    let exception Differ of counterexample in
    try
      iter_points ~degree:degree_cap ~v2 tops (fun k ->
          if differs k then
            (* a difference modulo q is one over Z *)
            raise (Differ (Option.get (differ (point_of k)))));
      Verified
    with Differ ce -> Refuted ce
  end

let certify ?ctx polys prog = decide ?ctx polys (Netlist.of_prog ~width:0 prog)

let certify_netlist polys (n : Netlist.t) =
  decide
    ~ctx:(Canonical.make_ctx ~out_width:n.width ())
    polys
    { n with outputs = Prog.name_outputs (List.map snd n.outputs) }

let spot_check_netlist ?(seed = 1) polys (n : Netlist.t) =
  let samples = 5 in
  let named = Prog.name_outputs polys in
  let vars =
    List.sort_uniq String.compare
      (Netlist.inputs n @ List.concat_map (fun (_, p) -> Poly.vars p) named)
  in
  let draw =
    Netlist.draw_words (Polysynth_zint.Xorshift.make seed) ~width:n.width vars
  in
  let rec round s =
    if s >= samples then Ok ()
    else begin
      let point = draw () in
      let env = env_of point in
      let results = Netlist.eval n env in
      let rec check = function
        | [] -> round (s + 1)
        | (name, p) :: rest ->
          let expected = Z.erem_pow2 (Poly.eval env p) n.width in
          (match List.assoc_opt name results with
           | None -> Error { output = name; point; expected; got = None }
           | Some got ->
             if Z.equal got expected then check rest
             else Error { output = name; point; expected; got = Some got })
      in
      check named
    end
  in
  round 0
