module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Parse = Polysynth_poly.Parse
module Mono = Polysynth_poly.Monomial
module G = Polysynth_factor.Mgcd
module S = Polysynth_factor.Squarefree

let p = Parse.poly_exn
let poly = Show.poly
let check_p = Alcotest.check poly

(* the factorization multiplied back out: the oracle that it factors
   its input *)
let expand { S.unit_part; factors } =
  List.fold_left
    (fun acc (s, k) -> P.mul acc (P.pow s k))
    (P.const unit_part) factors

(* no non-constant square divides [u]; constants are square-free *)
let is_squarefree u =
  P.is_const u || List.for_all (fun (_, k) -> k = 1) (S.squarefree u).S.factors

let divides b a = P.div_exact a b <> None

let prop name ?(count = 150) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let gen_poly ?(vars = [ "x"; "y"; "z" ]) ?(max_terms = 4) ?(max_exp = 2) () =
  let open QCheck.Gen in
  let gen_mono =
    list_size (int_range 0 2) (pair (oneofl vars) (int_range 1 max_exp))
    >|= Mono.of_list
  in
  list_size (int_range 0 max_terms) (pair (int_range (-6) 6) gen_mono)
  >|= fun terms ->
  P.of_terms (List.map (fun (c, m) -> (Z.of_int c, m)) terms)

let arb_poly = QCheck.make (gen_poly ()) ~print:P.to_string

let arb_pair = QCheck.make QCheck.Gen.(pair (gen_poly ()) (gen_poly ()))
    ~print:(fun (a, b) -> P.to_string a ^ " || " ^ P.to_string b)

let arb_triple =
  QCheck.make
    QCheck.Gen.(triple (gen_poly ()) (gen_poly ()) (gen_poly ~max_terms:3 ()))
    ~print:(fun (a, b, c) ->
      String.concat " || " [ P.to_string a; P.to_string b; P.to_string c ])

(* gcd -------------------------------------------------------------------------- *)

let test_gcd_univariate () =
  check_p "gcd(x^2-1, x^2-2x+1)" (p "x - 1")
    (G.gcd (p "x^2 - 1") (p "x^2 - 2*x + 1"));
  check_p "gcd(x^2-1, x+1)" (p "x + 1") (G.gcd (p "x^2 - 1") (p "x + 1"));
  check_p "coprime" P.one (G.gcd (p "x + 1") (p "x + 2"));
  check_p "with content" (p "2*x + 2") (G.gcd (p "4*x^2 - 4") (p "2*x^2 + 4*x + 2"))

let test_gcd_multivariate () =
  check_p "gcd((x+y)^2*z, (x+y)*w)" (p "x + y")
    (G.gcd (P.mul (P.pow (p "x + y") 2) (p "z")) (P.mul (p "x + y") (p "w")));
  check_p "gcd over paper system" (p "x + 3*y")
    (G.gcd (p "x^2 + 6*x*y + 9*y^2") (p "4*x*y^2 + 12*y^3"));
  check_p "no shared vars" (p "3") (G.gcd (p "3*x") (p "6*y"))

let test_gcd_zero () =
  check_p "gcd(0, p)" (p "x + 1") (G.gcd P.zero (p "x + 1"));
  check_p "gcd(p, 0) normalized" (p "x + 1") (G.gcd (p "-x - 1") P.zero);
  check_p "gcd(0, 0)" P.zero (G.gcd P.zero P.zero)

let test_gcd_sign () =
  check_p "negative inputs" (p "x + y") (G.gcd (p "-x - y") (P.mul (p "-x - y") (p "x")))

let test_gcd_list () =
  check_p "gcd of paper Table 14.1 system" (p "x + 3*y")
    (List.fold_left G.gcd P.zero
       [ p "x^2 + 6*x*y + 9*y^2"; p "4*x*y^2 + 12*y^3"; p "2*x^2*z + 6*x*y*z" ])

let test_content_primitive_in () =
  let q = p "2*y*x^2 + 4*y^2*x" in
  check_p "content in x" (p "2*y") (G.content_in "x" q);
  check_p "primitive in x" (p "x^2 + 2*y*x") (G.primitive_part_in "x" q)

let test_pseudo_rem () =
  (* prem(x^2 + 1, 2x + 1) = 4*(x^2+1) mod (2x+1) = 5 *)
  check_p "univariate" (p "5") (G.pseudo_rem "x" (p "x^2 + 1") (p "2*x + 1"));
  Alcotest.check_raises "degree 0 divisor" Division_by_zero (fun () ->
      ignore (G.pseudo_rem "x" (p "x") (p "y")))

(* squarefree -------------------------------------------------------------------- *)

let test_squarefree_examples () =
  (* Example 14.1: u2 = (x+1)(x+2)^2 *)
  let f = S.squarefree (p "x^3 + 5*x^2 + 8*x + 4") in
  Alcotest.(check int) "unit" 1 (Z.to_int_exn f.S.unit_part);
  Alcotest.(check int) "two factors" 2 (List.length f.S.factors);
  (match f.S.factors with
   | [ (s1, 1); (s2, 2) ] ->
     check_p "s1" (p "x + 1") s1;
     check_p "s2" (p "x + 2") s2
   | _ -> Alcotest.fail "unexpected factor shape");
  check_p "expand roundtrip" (p "x^3 + 5*x^2 + 8*x + 4") (expand f)

let test_squarefree_example_14_2 () =
  (* u = 2x^7 - 2x^6 + 24x^5 - 24x^4 + 96x^3 - 96x^2 + 128x - 128
       = 2 (x-1) (x^2+4)^3 *)
  let u =
    p "2*x^7 - 2*x^6 + 24*x^5 - 24*x^4 + 96*x^3 - 96*x^2 + 128*x - 128"
  in
  let f = S.squarefree u in
  Alcotest.(check int) "unit 2" 2 (Z.to_int_exn f.S.unit_part);
  (match f.S.factors with
   | [ (s1, 1); (s3, 3) ] ->
     check_p "s1 = x - 1" (p "x - 1") s1;
     check_p "s3 = x^2 + 4" (p "x^2 + 4") s3
   | _ -> Alcotest.fail "unexpected factor shape");
  check_p "expand" u (expand f)

let test_squarefree_example_14_3 () =
  (* x^6 - 9x^4 + 24x^2 - 16 = (x^2-1)(x^2-4)^2 *)
  let u = p "x^6 - 9*x^4 + 24*x^2 - 16" in
  let f = S.squarefree u in
  (match f.S.factors with
   | [ (s1, 1); (s2, 2) ] ->
     check_p "s1" (p "x^2 - 1") s1;
     check_p "s2" (p "x^2 - 4") s2
   | _ -> Alcotest.fail "unexpected factor shape");
  check_p "expand" u (expand f)

let test_squarefree_multivariate () =
  (* (x+y)^2 detection, the motivating symbolic-methods example *)
  let f = S.squarefree (p "x^2 + 2*x*y + y^2") in
  (match f.S.factors with
   | [ (s, 2) ] -> check_p "(x+y)" (p "x + y") s
   | _ -> Alcotest.fail "expected a single squared factor");
  (* mixed: y * (x+1)^2, content in one variable *)
  let g = S.squarefree (p "y*x^2 + 2*y*x + y") in
  check_p "expand mixed" (p "y*x^2 + 2*y*x + y") (expand g);
  Alcotest.(check bool) "has (x+1)^2" true
    (List.exists (fun (s, k) -> k = 2 && P.equal s (p "x + 1")) g.S.factors)

let test_squarefree_detects () =
  Alcotest.(check bool) "squarefree" true (is_squarefree (p "x^2 + 3*x + 2"));
  Alcotest.(check bool) "not squarefree" false
    (is_squarefree (p "x^4 + 7*x^3 + 18*x^2 + 20*x + 8"));
  Alcotest.(check bool) "constant" true (is_squarefree (p "7"));
  Alcotest.check_raises "zero" (Invalid_argument "Squarefree.squarefree: zero polynomial")
    (fun () -> ignore (S.squarefree P.zero))

let test_perfect_power () =
  (match S.perfect_power_root (p "x^2 + 2*x*y + y^2") with
   | Some (v, 2) -> check_p "root" (p "x + y") v
   | _ -> Alcotest.fail "expected square");
  (match S.perfect_power_root (p "x^3 + 3*x^2 + 3*x + 1") with
   | Some (v, 3) -> check_p "cube root" (p "x + 1") v
   | _ -> Alcotest.fail "expected cube");
  (match S.perfect_power_root (p "4*x^2 + 8*x + 4") with
   | Some (v, 2) -> check_p "root with content" (p "2*x + 2") v
   | _ -> Alcotest.fail "expected square with content");
  Alcotest.(check bool) "not a power" true
    (S.perfect_power_root (p "x^2 + 1") = None);
  Alcotest.(check bool) "constant" true (S.perfect_power_root (p "9") = None)

let test_integer_root () =
  let check name n k expect =
    Alcotest.(check bool) name true
      (match S.integer_root (Z.of_int n) k with
       | Some r -> (match expect with Some e -> Z.to_int_exn r = e | None -> false)
       | None -> expect = None)
  in
  check "sqrt 49" 49 2 (Some 7);
  check "sqrt 50" 50 2 None;
  check "cbrt -27" (-27) 3 (Some (-3));
  check "sqrt -4" (-4) 2 None;
  check "k=1" 17 1 (Some 17);
  check "root of 0" 0 5 (Some 0)

(* the earlier design's root search, kept as the reference: binary search
   over all of [0, |n|] *)
let reference_integer_root n k =
  let root_abs n =
    let rec search lo hi =
      if Z.compare lo hi > 0 then None
      else
        let mid = Z.div (Z.add lo hi) Z.two in
        let c = Z.compare (Z.pow mid k) n in
        if c = 0 then Some mid
        else if c < 0 then search (Z.add mid Z.one) hi
        else search lo (Z.sub mid Z.one)
    in
    search Z.zero n
  in
  if k = 1 then Some n
  else if Z.is_negative n then
    if k land 1 = 0 then None else Option.map Z.neg (root_abs (Z.abs n))
  else root_abs n

let test_integer_root_reference () =
  let zs = Z.of_string in
  let near v = [ Z.sub v Z.one; v; Z.add v Z.one ] in
  let powers =
    List.concat_map
      (fun r ->
        List.concat_map (fun k -> near (Z.pow (zs r) k)) [ 2; 3; 4; 5; 6; 7 ])
      [ "2"; "3"; "10"; "255"; "1000"; "65537"; "3037000499"; "2147483647";
        "2147483648"; "1000000007"; "18446744073709551615" ]
  in
  let boundaries =
    List.concat_map near
      [ Z.of_int max_int; Z.pow2 62; Z.pow (Z.pow2 31) 2; Z.pow2 63;
        Z.pow (Z.of_int 3037000499) 2; Z.pow2 30; Z.pow2 60; Z.pow2 120 ]
  in
  let values = (Z.zero :: powers) @ boundaries in
  let check ks values =
    List.iter
      (fun n ->
        List.iter
          (fun n ->
            List.iter
              (fun k ->
                let show = function None -> "none" | Some r -> Z.to_string r in
                Alcotest.(check string)
                  (Printf.sprintf "root %d of %s" k (Z.to_string n))
                  (show (reference_integer_root n k))
                  (show (S.integer_root n k)))
              ks)
          [ n; Z.neg n ])
      values
  in
  check [ 1; 2; 3; 4; 5; 6; 7 ] values;
  (* k up to 40 around 2^k (the values below 2^k are answered without a
     power), 3^k and 4^k *)
  List.iter
    (fun k ->
      check [ k ]
        (List.concat_map
           (fun r -> near (Z.pow (Z.of_int r) k))
           [ 2; 3; 4 ]))
    (List.init 39 (fun i -> i + 2));
  (* powers of about 2000 bits *)
  check [ 2; 3 ]
    (near (Z.pow (Z.pow (Z.of_int 3) 630) 2)
    @ near (Z.pow (Z.pow (Z.of_int 7) 237) 3));
  (* a large k with a root of a few bits: Newton falls by about 1 a step
     and divides the 19 930-bit value by a multi-limb power at each.  The
     reference cannot answer these (its first probe is a power of about
     40 million bits), so the roots are given. *)
  let n = Z.pow (Z.of_int 1003) 1999 in
  List.iter
    (fun (name, n, root) ->
      List.iter
        (fun (name, n, root) ->
          Alcotest.(check (option string))
            ("root 1999 of " ^ name) (Option.map string_of_int root)
            (Option.map Z.to_string (S.integer_root n 1999)))
        [ (name, n, root); ("-(" ^ name ^ ")", Z.neg n, Option.map Int.neg root) ])
    [ ("1003^1999", n, Some 1003); ("1003^1999 + 1", Z.add n Z.one, None) ]

(* linear factors --------------------------------------------------------------- *)

module LF = Polysynth_factor.Linear_factors

let test_roots_basic () =
  (* (x - 2)(x + 3) = x^2 + x - 6 *)
  let rs = LF.roots "x" (p "x^2 + x - 6") in
  let as_ints = List.map (fun (b, a) -> (Z.to_int_exn b, Z.to_int_exn a)) rs in
  Alcotest.(check bool) "root 2" true (List.mem (2, 1) as_ints);
  Alcotest.(check bool) "root -3" true (List.mem (-3, 1) as_ints);
  Alcotest.(check int) "exactly two" 2 (List.length rs)

let test_roots_rational () =
  (* (2x - 3)(x + 1) = 2x^2 - x - 3 *)
  let rs = LF.roots "x" (p "2*x^2 - x - 3") in
  let as_ints = List.map (fun (b, a) -> (Z.to_int_exn b, Z.to_int_exn a)) rs in
  Alcotest.(check bool) "root 3/2" true (List.mem (3, 2) as_ints);
  Alcotest.(check bool) "root -1" true (List.mem (-1, 1) as_ints)

let test_roots_zero_root () =
  let rs = LF.roots "x" (p "x^3 - x^2") in
  let as_ints = List.map (fun (b, a) -> (Z.to_int_exn b, Z.to_int_exn a)) rs in
  Alcotest.(check bool) "root 0" true (List.mem (0, 1) as_ints);
  Alcotest.(check bool) "root 1" true (List.mem (1, 1) as_ints)

let test_roots_none () =
  Alcotest.(check int) "x^2+1 has no rational roots" 0
    (List.length (LF.roots "x" (p "x^2 + 1")))

(* candidates come from factoring the end coefficients: powers past a
   native int factor at once, every coefficient below 2^32 factors
   completely, and a cofactor too large to be known prime, or too many
   divisor pairs, give none *)
let test_roots_large_coefficients () =
  let roots s =
    List.map (fun (b, a) -> (Z.to_string b, Z.to_string a)) (LF.roots "x" (p s))
  in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "2^40*x - 3^40"
    [ (Z.to_string (Z.pow (Z.of_int 3) 40), Z.to_string (Z.pow2 40)) ]
    (roots "2^40*x - 3^40");
  Alcotest.check pair "65521*65519*x - 65519" [ ("1", "65521") ]
    (roots "65521*65519*x - 65519");
  Alcotest.check pair "(2^61 - 1)*(x - 1): no candidates" []
    (roots "2305843009213693951*x - 2305843009213693951");
  Alcotest.check pair "47# * (x - 1): 2^30 divisor pairs, no candidates" []
    (roots "614889782588491410*x - 614889782588491410")

(* planted roots b/a of (a*x - b) * (x + 1) * c, with [c] a product of four
   primes between 60 000 and 65 536, past 2^62: both end coefficients are
   bignums that trial division factors completely, with at most
   8 * 16 * 16 divisor pairs.  Every listed root b/a is a root: a*x - b
   divides the polynomial. *)
let prop_roots_bignum_coefficients =
  let is_prime n =
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
    go 2
  in
  let primes = List.filter is_prime (List.init 5536 (fun i -> 60_000 + i)) in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let x = P.var "x" in
  let linear (b, a) = P.sub (P.mul_scalar a x) (P.const b) in
  prop "roots of bignum coefficients" ~count:30
    (QCheck.make
       ~print:(fun (a, b, ps) ->
         Printf.sprintf "a=%d b=%d c=%s" a b
           (String.concat "*" (List.map string_of_int ps)))
       QCheck.Gen.(
         triple (int_range 1 10)
           (map2 ( * ) (oneofl [ 1; -1 ]) (oneofl [ 1; 2; 3; 5; 7; 11; 13 ]))
           (list_repeat 4 (oneofl primes))))
    (fun (a, b, ps) ->
      QCheck.assume (gcd a (abs b) = 1);
      let c = List.fold_left Z.mul_int Z.one ps in
      let u =
        P.mul_scalar c
          (P.mul (linear (Z.of_int b, Z.of_int a)) (P.add x P.one))
      in
      let rs = LF.roots "x" u in
      List.mem (Z.of_int b, Z.of_int a) rs
      && List.mem (Z.minus_one, Z.one) rs
      && List.for_all (fun r -> divides (linear r) u) rs)

let test_roots_invalid () =
  Alcotest.check_raises "multivariate"
    (Invalid_argument "Linear_factors: polynomial is not univariate")
    (fun () -> ignore (LF.roots "x" (p "x*y + 1")));
  Alcotest.check_raises "zero"
    (Invalid_argument "Linear_factors: zero polynomial") (fun () ->
      ignore (LF.roots "x" P.zero))

let test_linear_factors_reconstruct () =
  let u = p "2*x^3 + x^2 - 8*x - 4" in
  (* = (2x + 1)(x - 2)(x + 2) *)
  let factors, rest = LF.linear_factors "x" u in
  let product =
    List.fold_left
      (fun acc (f, k) -> P.mul acc (P.pow f k))
      rest factors
  in
  check_p "reconstructs" u product;
  Alcotest.(check int) "three linear factors" 3
    (List.fold_left (fun acc (_, k) -> acc + k) 0 factors);
  Alcotest.(check bool) "(2x + 1) found" true
    (List.exists (fun (f, _) -> P.equal f (p "2*x + 1")) factors)

let test_linear_factors_multiplicity () =
  let factors, rest = LF.linear_factors "x" (p "x^3 - 3*x^2 + 3*x - 1") in
  (match factors with
   | [ (f, 3) ] -> check_p "(x-1)^3" (p "x - 1") f
   | _ -> Alcotest.fail "expected (x-1)^3");
  check_p "rest is 1" P.one rest

(* full factorization ------------------------------------------------------------- *)

module Fp = Polysynth_factor.Fp_poly
module B = Polysynth_factor.Berlekamp
module H = Polysynth_factor.Hensel
module F = Polysynth_factor.Factorize

let test_fp_poly_arith () =
  let p = 7 in
  let a = Fp.of_list ~p [ 1; 2; 3 ] and b = Fp.of_list ~p [ 6; 5 ] in
  Alcotest.(check bool) "mul degree" true (Fp.degree (Fp.mul ~p a b) = 3);
  let q, r = Fp.divmod ~p a b in
  Alcotest.(check bool) "divmod invariant" true
    (Fp.equal a (Fp.add ~p (Fp.mul ~p q b) r));
  Alcotest.(check int) "inverse" 1 (3 * Fp.inv_mod_p ~p:7 3 mod 7);
  Alcotest.(check int) "eval" ((1 + 2*3 + 3*9) mod 7) (Fp.eval ~p a 3);
  let g, s, t = Fp.extended_gcd ~p a b in
  Alcotest.(check bool) "bezout" true
    (Fp.equal g (Fp.add ~p (Fp.mul ~p s a) (Fp.mul ~p t b)))

let test_berlekamp_splits () =
  (* x^2 - 1 = (x-1)(x+1) mod 5 *)
  let p = 5 in
  let f = Fp.of_list ~p [ -1; 0; 1 ] in
  let factors = B.factor ~p f in
  Alcotest.(check int) "two factors" 2 (List.length factors);
  Alcotest.(check int) "nullspace dim" 2 (B.nullspace_dimension ~p f);
  let product = List.fold_left (Fp.mul ~p) Fp.one factors in
  Alcotest.(check bool) "product" true (Fp.equal (Fp.monic ~p f) product)

let test_berlekamp_irreducible () =
  (* x^2 + 1 is irreducible mod 7 (7 = 3 mod 4) *)
  let p = 7 in
  let f = Fp.of_list ~p [ 1; 0; 1 ] in
  Alcotest.(check int) "irreducible" 1 (List.length (B.factor ~p f))

let test_hensel_pair () =
  (* x^2 - 1 = (x-1)(x+1): lift from mod 5 to mod 5^k >= 1000 *)
  let p = 5 in
  let f = [| Z.of_int (-1); Z.zero; Z.one |] in
  let facs = [ Fp.of_list ~p [ -1; 1 ]; Fp.of_list ~p [ 1; 1 ] ] in
  let lifted, m = H.lift_factors ~p ~target:(Z.of_int 1000) f facs in
  Alcotest.(check bool) "modulus big enough" true
    (Z.compare m (Z.of_int 1000) >= 0);
  let product = List.fold_left (H.mul ~m) [| Z.one |] lifted in
  Alcotest.(check bool) "f = prod mod m" true
    (H.pair_lift_check ~p ~m f product [| Z.one |])

let check_factorization s expected_factors =
  let u = p s in
  let f = F.factor "x" u in
  check_p (s ^ " expands") u (F.expand f);
  Alcotest.(check int)
    (s ^ " factor count")
    expected_factors
    (List.fold_left (fun acc (_, k) -> acc + k) 0 f.F.factors)

let test_factorize_classics () =
  check_factorization "x^2 - 1" 2;
  check_factorization "x^2 + 1" 1;
  check_factorization "6*x^2 + 5*x + 1" 2;
  check_factorization "x^4 - 1" 3;
  check_factorization "x^6 - 1" 4;
  check_factorization "x^4 + 4" 2;
  check_factorization "x^4 + x^2 + 1" 2;
  check_factorization "12*x^3 - 44*x^2 + 49*x - 15" 3;
  check_factorization "x^8 + x^4 + 1" 3

let test_factorize_multiplicities () =
  let f = F.factor "x" (p "x^4 + 2*x^3 + x^2") in
  (* x^2 (x+1)^2 *)
  Alcotest.(check bool) "has x^2" true
    (List.exists (fun (g, k) -> P.equal g (p "x") && k = 2) f.F.factors);
  Alcotest.(check bool) "has (x+1)^2" true
    (List.exists (fun (g, k) -> P.equal g (p "x + 1") && k = 2) f.F.factors)

let test_factorize_paper_example () =
  (* Example 14.3 continued: the square-free factors are reducible *)
  let f = F.factor "x" (p "x^6 - 9*x^4 + 24*x^2 - 16") in
  let flat = List.map (fun (g, k) -> (P.to_string g, k)) f.F.factors in
  Alcotest.(check bool) "(x-1)" true (List.mem ("x - 1", 1) flat);
  Alcotest.(check bool) "(x+1)" true (List.mem ("x + 1", 1) flat);
  Alcotest.(check bool) "(x-2)^2" true (List.mem ("x - 2", 2) flat);
  Alcotest.(check bool) "(x+2)^2" true (List.mem ("x + 2", 2) flat)

let test_is_irreducible () =
  Alcotest.(check bool) "x^2+1" true (F.is_irreducible "x" (p "x^2 + 1"));
  Alcotest.(check bool) "x^2-1" false (F.is_irreducible "x" (p "x^2 - 1"));
  Alcotest.(check bool) "x^4+1" true (F.is_irreducible "x" (p "x^4 + 1"));
  Alcotest.(check bool) "cyclotomic 12" true
    (F.is_irreducible "x" (p "x^4 - x^2 + 1"))

let test_factorize_invalid () =
  Alcotest.check_raises "multivariate"
    (Invalid_argument "Factorize: polynomial is not univariate") (fun () ->
      ignore (F.factor "x" (p "x*y")));
  Alcotest.check_raises "zero" (Invalid_argument "Factorize: zero polynomial")
    (fun () -> ignore (F.factor "x" P.zero))

(* internal-error hardening ------------------------------------------------------- *)

(* The `assert false` sites in Linear_factors, Mgcd and Squarefree are now
   descriptive internal-error failures.  Stress the code paths that used to
   guard them — rational roots with large coefficients, heavy content,
   negative leading terms, pseudo-division towers — and demand that no bare
   Assert_failure escapes (documented Invalid_argument is fine). *)

let no_assert name f =
  match f () with
  | exception Assert_failure (file, line, _) ->
    Alcotest.failf "%s: Assert_failure at %s:%d" name file line
  | exception Invalid_argument _ -> ()
  | exception Division_by_zero -> ()
  | _ -> ()

let test_hardening_edge_inputs () =
  no_assert "roots: huge coefficients" (fun () ->
      LF.roots "x" (p "1000000007*x^3 - 1000000007*x"));
  no_assert "roots: negative leading coefficient" (fun () ->
      LF.roots "x" (p "0 - 6*x^3 + 11*x^2 - 6*x + 1"));
  no_assert "roots: dense rational roots" (fun () ->
      LF.roots "x" (p "30*x^4 - 133*x^3 + 163*x^2 - 16*x - 12"));
  no_assert "linear_factors: content-heavy" (fun () ->
      LF.linear_factors "x" (p "1024*x^5 - 1024*x"));
  no_assert "linear_factors: constant" (fun () -> LF.linear_factors "x" (p "42"));
  no_assert "gcd: deep pseudo-division tower" (fun () ->
      G.gcd
        (P.mul (P.pow (p "x + y + z") 3) (p "2*x - 5"))
        (P.mul (P.pow (p "x + y + z") 2) (p "7*y + 1")));
  no_assert "gcd: mismatched contents" (fun () ->
      G.gcd (p "6*x^4*y^2 - 6*y^2") (p "15*x^2*y^3 + 15*y^3"));
  no_assert "squarefree: high multiplicity" (fun () ->
      S.squarefree (P.pow (p "3*x - 2") 6));
  no_assert "squarefree: mixed multiplicities with content" (fun () ->
      S.squarefree
        (P.mul (P.of_int 12) (P.mul (P.pow (p "x + 1") 4) (p "x^2 + 1"))))

let gen_univariate = gen_poly ~vars:[ "x" ] ~max_terms:5 ~max_exp:4 ()

let prop_no_assert_failure =
  prop "factor stack never raises Assert_failure" ~count:120
    (QCheck.make
       QCheck.Gen.(pair gen_univariate (gen_poly ()))
       ~print:(fun (a, b) -> P.to_string a ^ " || " ^ P.to_string b))
    (fun (u, m) ->
      let safe f =
        match f () with
        | exception Assert_failure _ -> false
        | exception Invalid_argument _ -> true
        | exception Division_by_zero -> true
        | _ -> true
      in
      safe (fun () -> LF.roots "x" u)
      && safe (fun () -> LF.linear_factors "x" u)
      && safe (fun () -> S.squarefree u)
      && safe (fun () -> S.squarefree m)
      && safe (fun () -> G.gcd u m)
      && safe (fun () -> G.gcd m (P.mul m u)))

(* properties --------------------------------------------------------------------- *)

let gen_linear_product =
  let open QCheck.Gen in
  let gen_root = pair (int_range (-5) 5) (int_range 1 3) in
  list_size (int_range 1 3) gen_root
  >|= fun roots ->
  List.fold_left
    (fun acc (b, a) ->
      P.mul acc
        (P.sub (P.mul_scalar (Z.of_int a) (P.var "x")) (P.of_int b)))
    P.one roots

let gen_factor_product =
  (* product of 2-3 small factors, some irreducible quadratics *)
  let open QCheck.Gen in
  let gen_factor =
    oneof
      [
        (pair (int_range 1 3) (int_range (-4) 4) >|= fun (a, b) ->
         P.sub (P.mul_scalar (Z.of_int a) (P.var "x")) (P.of_int b));
        (pair (int_range (-3) 3) (int_range 1 5) >|= fun (b, c) ->
         P.add_list
           [ P.pow (P.var "x") 2;
             P.mul_scalar (Z.of_int b) (P.var "x");
             P.of_int c ]);
      ]
  in
  list_size (int_range 1 3) gen_factor
  >|= List.fold_left P.mul P.one

let prop_factorize_expands =
  prop "factorization expands back" ~count:60
    (QCheck.make gen_factor_product ~print:P.to_string)
    (fun u ->
      QCheck.assume (not (P.is_zero u));
      let f = F.factor "x" u in
      P.equal u (F.expand f))

let prop_factors_are_irreducible =
  prop "emitted factors are irreducible" ~count:40
    (QCheck.make gen_factor_product ~print:P.to_string)
    (fun u ->
      QCheck.assume (not (P.is_zero u) && not (P.is_const u));
      let f = F.factor "x" u in
      List.for_all (fun (g, _) -> F.is_irreducible "x" g) f.F.factors)

let prop_linear_factors_found =
  prop "products of linear factors fully factor" ~count:100
    (QCheck.make gen_linear_product ~print:P.to_string)
    (fun u ->
      let factors, rest = LF.linear_factors "x" u in
      P.is_const rest
      && P.equal u
           (List.fold_left
              (fun acc (f, k) -> P.mul acc (P.pow f k))
              rest factors))

let prop_gcd_divides =
  prop "gcd divides both" arb_pair (fun (a, b) ->
      let g = G.gcd a b in
      if P.is_zero g then P.is_zero a && P.is_zero b
      else divides g a && divides g b)

let prop_gcd_common_factor =
  prop "common factor divides gcd" arb_triple (fun (a, b, c) ->
      QCheck.assume (not (P.is_zero c));
      QCheck.assume (not (P.is_zero a) || not (P.is_zero b));
      let g = G.gcd (P.mul a c) (P.mul b c) in
      divides c g)

let prop_gcd_commutes =
  prop "gcd commutes" arb_pair (fun (a, b) -> P.equal (G.gcd a b) (G.gcd b a))

let prop_squarefree_expand =
  prop "squarefree expands back" arb_poly (fun a ->
      QCheck.assume (not (P.is_zero a));
      P.equal a (expand (S.squarefree a)))

let prop_squarefree_factors_are_squarefree =
  prop "factors are square-free and coprime" arb_poly (fun a ->
      QCheck.assume (not (P.is_zero a));
      let { S.factors; _ } = S.squarefree a in
      List.for_all (fun (s, _) -> is_squarefree s) factors
      && begin
        let rec pairwise = function
          | [] -> true
          | (s, _) :: rest ->
            List.for_all (fun (t, _) -> P.is_const (G.gcd s t)) rest
            && pairwise rest
        in
        pairwise factors
      end)

let prop_square_detected =
  prop "p^2 is detected as a perfect power" arb_poly (fun a ->
      QCheck.assume (not (P.is_zero a) && not (P.is_const a));
      match S.perfect_power_root (P.mul a a) with
      | Some (_, k) -> k >= 2
      | None -> false)

let prop_perfect_power_expands =
  prop "perfect_power_root reconstructs" arb_poly (fun a ->
      QCheck.assume (not (P.is_zero a) && not (P.is_const a));
      let sq = P.mul a a in
      match S.perfect_power_root sq with
      | Some (v, k) -> P.equal sq (P.pow v k)
      | None -> false)

(* [v^k] for k from 2 to 5: the value test before the square-free
   factorization must let every perfect power through, cubes and fifth
   powers included *)
let prop_higher_power_expands =
  prop "perfect_power_root reconstructs v^k" ~count:100
    (QCheck.make
       QCheck.Gen.(pair (gen_poly ~max_terms:3 ()) (int_range 2 5))
       ~print:(fun (v, k) -> Printf.sprintf "(%s)^%d" (P.to_string v) k))
    (fun (v, k) ->
      QCheck.assume (not (P.is_const v));
      let u = P.pow v k in
      match S.perfect_power_root u with
      | Some (w, j) -> j >= k && P.equal u (P.pow w j)
      | None -> false)

let () =
  Alcotest.run "factor"
    [
      ( "gcd",
        [
          Alcotest.test_case "univariate" `Quick test_gcd_univariate;
          Alcotest.test_case "multivariate" `Quick test_gcd_multivariate;
          Alcotest.test_case "zero cases" `Quick test_gcd_zero;
          Alcotest.test_case "sign normalization" `Quick test_gcd_sign;
          Alcotest.test_case "gcd_list" `Quick test_gcd_list;
          Alcotest.test_case "content/primitive in var" `Quick test_content_primitive_in;
          Alcotest.test_case "pseudo_rem" `Quick test_pseudo_rem;
        ] );
      ( "squarefree",
        [
          Alcotest.test_case "example 14.1" `Quick test_squarefree_examples;
          Alcotest.test_case "example 14.2" `Quick test_squarefree_example_14_2;
          Alcotest.test_case "example 14.3" `Quick test_squarefree_example_14_3;
          Alcotest.test_case "multivariate" `Quick test_squarefree_multivariate;
          Alcotest.test_case "is_squarefree" `Quick test_squarefree_detects;
          Alcotest.test_case "perfect powers" `Quick test_perfect_power;
          Alcotest.test_case "integer roots" `Quick test_integer_root;
          Alcotest.test_case "integer roots match the reference search" `Quick
            test_integer_root_reference;
        ] );
      ( "linear_factors",
        [
          Alcotest.test_case "basic roots" `Quick test_roots_basic;
          Alcotest.test_case "rational roots" `Quick test_roots_rational;
          Alcotest.test_case "zero root" `Quick test_roots_zero_root;
          Alcotest.test_case "no roots" `Quick test_roots_none;
          Alcotest.test_case "large coefficients" `Quick
            test_roots_large_coefficients;
          prop_roots_bignum_coefficients;
          Alcotest.test_case "invalid input" `Quick test_roots_invalid;
          Alcotest.test_case "reconstruct" `Quick test_linear_factors_reconstruct;
          Alcotest.test_case "multiplicity" `Quick test_linear_factors_multiplicity;
        ] );
      ( "factorize",
        [
          Alcotest.test_case "fp_poly arithmetic" `Quick test_fp_poly_arith;
          Alcotest.test_case "berlekamp splits" `Quick test_berlekamp_splits;
          Alcotest.test_case "berlekamp irreducible" `Quick
            test_berlekamp_irreducible;
          Alcotest.test_case "hensel pair" `Quick test_hensel_pair;
          Alcotest.test_case "classic factorizations" `Quick
            test_factorize_classics;
          Alcotest.test_case "multiplicities" `Quick
            test_factorize_multiplicities;
          Alcotest.test_case "paper example 14.3" `Quick
            test_factorize_paper_example;
          Alcotest.test_case "irreducibility" `Quick test_is_irreducible;
          Alcotest.test_case "invalid input" `Quick test_factorize_invalid;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "edge inputs raise no Assert_failure" `Quick
            test_hardening_edge_inputs;
          prop_no_assert_failure;
        ] );
      ( "properties",
        [
          prop_factorize_expands;
          prop_factors_are_irreducible;
          prop_linear_factors_found;
          prop_gcd_divides;
          prop_gcd_common_factor;
          prop_gcd_commutes;
          prop_squarefree_expand;
          prop_squarefree_factors_are_squarefree;
          prop_square_detected;
          prop_perfect_power_expands;
          prop_higher_power_expands;
        ] );
    ]
