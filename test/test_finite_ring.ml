module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Mono = Polysynth_poly.Monomial
module Parse = Polysynth_poly.Parse
module Sm = Polysynth_finite_ring.Smarandache
module St = Polysynth_finite_ring.Stirling
module C = Polysynth_finite_ring.Canonical

let p = Parse.poly_exn
let poly = Show.poly
let check_p = Alcotest.check poly

(* the canonical form expanded back to the power basis *)
let canonical_poly ctx p = C.of_falling (C.canonicalize ctx p)

let prop name ?(count = 200) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* smarandache ---------------------------------------------------------------- *)

let test_lambda () =
  let cases = [ (1, 2); (2, 4); (3, 4); (4, 6); (8, 10); (16, 18); (32, 34) ] in
  List.iter
    (fun (m, expect) ->
      Alcotest.(check int) (Printf.sprintf "lambda %d" m) expect (Sm.lambda m))
    cases;
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Smarandache.lambda: non-positive width") (fun () ->
      ignore (Sm.lambda 0))

let test_lambda_minimality () =
  (* lambda m is the least k with 2^m | k! *)
  for m = 1 to 40 do
    let l = Sm.lambda m in
    Alcotest.(check bool) "divides" true (Z.divides (Z.pow2 m) (Z.factorial l));
    Alcotest.(check bool) "minimal" false
      (Z.divides (Z.pow2 m) (Z.factorial (l - 1)))
  done

let test_val2_factorial () =
  Alcotest.(check int) "v2(0!)" 0 (Sm.val2_factorial 0);
  Alcotest.(check int) "v2(4!)" 3 (Sm.val2_factorial 4);
  Alcotest.(check int) "v2(18!)" 16 (Sm.val2_factorial 18);
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "matches Zint for %d!" k)
        (Z.val2 (Z.factorial k))
        (Sm.val2_factorial k))
    [ 1; 2; 3; 5; 10; 20; 25 ]

(* stirling --------------------------------------------------------------------- *)

let test_stirling_second () =
  let check n k expect =
    Alcotest.(check int)
      (Printf.sprintf "S(%d,%d)" n k)
      expect
      (Z.to_int_exn (St.second n k))
  in
  check 0 0 1; check 1 1 1; check 2 1 1; check 2 2 1;
  check 3 1 1; check 3 2 3; check 3 3 1;
  check 4 2 7; check 4 3 6; check 5 2 15; check 5 3 25;
  check 3 0 0; check 2 3 0

let test_stirling_first () =
  let check n k expect =
    Alcotest.(check int)
      (Printf.sprintf "s(%d,%d)" n k)
      expect
      (Z.to_int_exn (St.first_signed n k))
  in
  check 0 0 1; check 1 1 1; check 2 1 (-1); check 2 2 1;
  check 3 1 2; check 3 2 (-3); check 3 3 1;
  check 4 1 (-6); check 4 2 11; check 4 3 (-6); check 4 4 1

let test_stirling_inverse () =
  (* the two triangular matrices are mutually inverse:
     sum_j S(n,j) s(j,k) = delta(n,k) *)
  for n = 0 to 8 do
    for k = 0 to 8 do
      let sum = ref Z.zero in
      for j = 0 to n do
        sum := Z.add !sum (Z.mul (St.second n j) (St.first_signed j k))
      done;
      Alcotest.(check bool)
        (Printf.sprintf "delta %d %d" n k)
        true
        (Z.equal !sum (if n = k then Z.one else Z.zero))
    done
  done

(* canonical --------------------------------------------------------------------- *)

let ctx16 = C.make_ctx ~out_width:16 ()

let y_mono l = Mono.of_list l

let test_falling_roundtrip_example () =
  let f = p "4*x^2*y^2 - 4*x^2*y - 4*x*y^2 + 4*x*y + 5*z^2*x - 5*z*x" in
  let falling = C.to_falling f in
  (* expected: 4*Y2(x)*Y2(y) + 5*Y1(x)*Y2(z) *)
  let expected =
    P.terms
      (P.of_terms
         [ (Z.of_int 4, y_mono [ ("x", 2); ("y", 2) ]);
           (Z.of_int 5, y_mono [ ("x", 1); ("z", 2) ]) ])
  in
  Alcotest.(check bool) "paper example F" true
    (C.falling_terms falling = expected);
  check_p "roundtrip" f (C.of_falling falling)

let test_falling_g_example () =
  let g = p "7*x^2*z^2 - 7*x^2*z - 7*x*z^2 + 7*z*x + 3*y^2*x - 3*y*x" in
  let expected =
    P.terms
      (P.of_terms
         [ (Z.of_int 7, y_mono [ ("x", 2); ("z", 2) ]);
           (Z.of_int 3, y_mono [ ("x", 1); ("y", 2) ]) ])
  in
  Alcotest.(check bool) "paper example G" true
    (C.falling_terms (C.to_falling g) = expected)

let test_chen_example () =
  (* f : Z_2 x Z_4 -> Z_8 from Section 14.3.1, F = 1 + 2y + x*y^2 *)
  let ctx = C.make_ctx ~out_width:3 ~var_widths:[ ("x", 1); ("y", 2) ] () in
  let f = p "1 + 2*y + x*y^2" in
  let table =
    [ (0, 0, 1); (0, 1, 3); (0, 2, 5); (0, 3, 7);
      (1, 0, 1); (1, 1, 4); (1, 2, 1); (1, 3, 0) ]
  in
  List.iter
    (fun (x, y, expect) ->
      let env v = if String.equal v "x" then Z.of_int x else Z.of_int y in
      Alcotest.(check int)
        (Printf.sprintf "f(%d,%d)" x y)
        expect
        (Z.to_int_exn (Show.eval_mod ctx f env)))
    table

let test_mu_lambda () =
  let ctx = C.make_ctx ~out_width:3 ~var_widths:[ ("x", 1); ("y", 2) ] () in
  Alcotest.(check int) "lambda(3)" 4 (Sm.lambda 3);
  Alcotest.(check int) "mu x = min(2,4)" 2 (C.mu ctx "x");
  Alcotest.(check int) "mu y = min(4,4)" 4 (C.mu ctx "y");
  Alcotest.(check int) "default width" 3 (C.var_width ctx "unseen");
  Alcotest.(check int) "mu 16-bit" 18 (C.mu ctx16 "x")

let test_vanishing () =
  (* x^2 + x = Y_2(x) + 2 Y_1(x); over Z_2 -> Z_1, Y_2 vanishes and the
     coefficient 2 reduces to 0: the function is identically 0. *)
  let ctx = C.make_ctx ~out_width:1 ~var_widths:[ ("x", 1) ] () in
  let f = p "x^2 + x" in
  Alcotest.(check bool) "x^2+x vanishes mod 2" true
    (C.falling_terms (C.canonicalize ctx f) = []);
  Alcotest.(check bool) "equal to zero function" true
    (Show.equal_functions ctx f P.zero)

let test_vanishing_16bit () =
  (* Y_18(x) * 2^0 vanishes over 16-bit arithmetic since 2^16 | 18! *)
  let m18 = y_mono [ ("x", 18) ] in
  Alcotest.(check bool) "term vanishes" true (C.vanishing_term ctx16 m18);
  Alcotest.(check bool) "Y17 does not vanish" false
    (C.vanishing_term ctx16 (y_mono [ ("x", 17) ]))

let test_term_modulus () =
  (* modulus of Y_2(x): 2^16 / gcd(2^16, 2) = 2^15 *)
  Alcotest.(check bool) "Y2 modulus" true
    (Z.equal (Z.pow2 15) (C.term_modulus ctx16 (y_mono [ ("x", 2) ])));
  Alcotest.(check bool) "constant modulus" true
    (Z.equal (Z.pow2 16) (C.term_modulus ctx16 Mono.one));
  (* Y_2(x) Y_2(y): gcd(2^16, 4) = 4 *)
  Alcotest.(check bool) "Y2Y2 modulus" true
    (Z.equal (Z.pow2 14) (C.term_modulus ctx16 (y_mono [ ("x", 2); ("y", 2) ])))

let test_coefficient_reduction () =
  (* 2^15 * Y_2(x) is the zero function over 16 bits:
     Y_2(x) is always even, so 2^15*Y_2(x) = 0 mod 2^16 *)
  let ctx = ctx16 in
  let f = P.mul_scalar (Z.pow2 15) (p "x^2 - x") in
  Alcotest.(check bool) "2^15*Y2 is zero" true
    (Show.equal_functions ctx f P.zero)

(* property: the canonical form computes the same function ------------------- *)

let gen_poly =
  let open QCheck.Gen in
  let gen_mono =
    list_size (int_range 0 2) (pair (oneofl [ "x"; "y" ]) (int_range 1 4))
    >|= Mono.of_list
  in
  list_size (int_range 0 5) (pair (int_range (-50) 50) gen_mono)
  >|= fun terms ->
  P.of_terms (List.map (fun (c, m) -> (Z.of_int c, m)) terms)

let arb_poly_points =
  QCheck.make
    QCheck.Gen.(triple gen_poly (int_range 0 255) (int_range 0 255))
    ~print:(fun (p0, a, b) -> Printf.sprintf "%s @ (%d,%d)" (P.to_string p0) a b)

let prop_canonical_preserves_function =
  let ctx = C.make_ctx ~out_width:8 ~var_widths:[ ("x", 8); ("y", 8) ] () in
  prop "canonical form preserves the function" ~count:300 arb_poly_points
    (fun (p0, a, b) ->
      let env v = if String.equal v "x" then Z.of_int a else Z.of_int b in
      let before = Show.eval_mod ctx p0 env in
      let after = Show.eval_mod ctx (canonical_poly ctx p0) env in
      Z.equal before after)

let prop_falling_roundtrip =
  prop "of_falling (to_falling p) = p" ~count:300
    (QCheck.make gen_poly ~print:P.to_string)
    (fun p0 -> P.equal p0 (C.of_falling (C.to_falling p0)))

let prop_canonical_idempotent =
  let ctx = C.make_ctx ~out_width:6 ~var_widths:[ ("x", 4); ("y", 4) ] () in
  prop "canonicalize is idempotent" ~count:300
    (QCheck.make gen_poly ~print:P.to_string)
    (fun p0 ->
      let c1 = canonical_poly ctx p0 in
      P.equal c1 (canonical_poly ctx c1))

let prop_equal_functions_exhaustive =
  (* over tiny rings, check the decision procedure against brute force *)
  let ctx = C.make_ctx ~out_width:3 ~var_widths:[ ("x", 2); ("y", 2) ] () in
  prop "equal_functions agrees with brute force" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_poly gen_poly)
       ~print:(fun (a, b) -> P.to_string a ^ " vs " ^ P.to_string b))
    (fun (a, b) ->
      let brute =
        List.for_all
          (fun x ->
            List.for_all
              (fun y ->
                let env v = if String.equal v "x" then Z.of_int x else Z.of_int y in
                Z.equal (Show.eval_mod ctx a env) (Show.eval_mod ctx b env))
              [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ]
      in
      Show.equal_functions ctx a b = brute)

let prop_to_falling_linear =
  prop "to_falling is linear" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_poly gen_poly)
       ~print:(fun (a, b) -> P.to_string a ^ " + " ^ P.to_string b))
    (fun (a, b) ->
      let fa = C.falling_terms (C.to_falling a) in
      let fb = C.falling_terms (C.to_falling b) in
      let fsum = C.falling_terms (C.to_falling (P.add a b)) in
      let add_falling =
        P.terms (P.add (P.of_terms fa) (P.of_terms fb))
      in
      fsum = add_falling)

let prop_mixed_widths_function_preserved =
  (* 4-bit x, 2-bit y, 6-bit output: exhaustive equivalence check *)
  let ctx = C.make_ctx ~out_width:6 ~var_widths:[ ("x", 4); ("y", 2) ] () in
  prop "mixed-width canonical preserves the function" ~count:100
    (QCheck.make gen_poly ~print:P.to_string)
    (fun p0 ->
      let c = canonical_poly ctx p0 in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              let env v = if String.equal v "x" then Z.of_int x else Z.of_int y in
              Z.equal (Show.eval_mod ctx p0 env) (Show.eval_mod ctx c env))
            [ 0; 1; 2; 3 ])
        (List.init 16 Fun.id))

let prop_canonical_coefficients_in_range =
  let ctx = C.make_ctx ~out_width:8 () in
  prop "canonical coefficients respect the term modulus" ~count:200
    (QCheck.make gen_poly ~print:P.to_string)
    (fun p0 ->
      List.for_all
        (fun (c, m) ->
          Z.sign c >= 0
          && Z.compare c (C.term_modulus ctx m) < 0
          && not (C.vanishing_term ctx m))
        (C.falling_terms (C.canonicalize ctx p0)))

let () =
  Alcotest.run "finite_ring"
    [
      ( "smarandache",
        [
          Alcotest.test_case "lambda table" `Quick test_lambda;
          Alcotest.test_case "lambda minimality" `Quick test_lambda_minimality;
          Alcotest.test_case "val2_factorial" `Quick test_val2_factorial;
        ] );
      ( "stirling",
        [
          Alcotest.test_case "second kind" `Quick test_stirling_second;
          Alcotest.test_case "first kind" `Quick test_stirling_first;
          Alcotest.test_case "mutually inverse" `Quick test_stirling_inverse;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "paper example F" `Quick test_falling_roundtrip_example;
          Alcotest.test_case "paper example G" `Quick test_falling_g_example;
          Alcotest.test_case "Chen function table" `Quick test_chen_example;
          Alcotest.test_case "mu and lambda" `Quick test_mu_lambda;
          Alcotest.test_case "vanishing polynomials" `Quick test_vanishing;
          Alcotest.test_case "vanishing at 16 bits" `Quick test_vanishing_16bit;
          Alcotest.test_case "term modulus" `Quick test_term_modulus;
          Alcotest.test_case "coefficient reduction" `Quick test_coefficient_reduction;
        ] );
      ( "properties",
        [
          prop_canonical_preserves_function;
          prop_falling_roundtrip;
          prop_canonical_idempotent;
          prop_equal_functions_exhaustive;
          prop_to_falling_linear;
          prop_mixed_widths_function_preserved;
          prop_canonical_coefficients_in_range;
        ] );
    ]
