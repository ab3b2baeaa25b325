module Z = Polysynth_zint.Zint
module Q = Polysynth_rat.Qint

(* the fraction [n/d]; raises Division_by_zero when [d] is zero *)
let of_ints n d = Q.div (Q.of_int n) (Q.of_int d)

let q = Show.q
let check_q = Alcotest.check q

let arb_q =
  let gen =
    QCheck.Gen.map
      (fun (n, d) -> of_ints n (if d = 0 then 1 else d))
      QCheck.Gen.(pair (int_range (-10_000) 10_000) (int_range (-100) 100))
  in
  QCheck.make gen ~print:Show.q_to_string

let prop name ?(count = 500) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let test_normalization () =
  check_q "6/4 = 3/2" (of_ints 3 2) (of_ints 6 4);
  check_q "-6/-4 = 3/2" (of_ints 3 2) (of_ints (-6) (-4));
  check_q "6/-4 = -3/2" (of_ints (-3) 2) (of_ints 6 (-4));
  check_q "0/7 = 0" Q.zero (of_ints 0 7);
  Alcotest.(check string) "den positive" "1" (Z.to_string (Q.den (of_ints 0 (-7))));
  Alcotest.check_raises "zero den" Division_by_zero (fun () ->
      ignore (of_ints 1 0))

let test_arithmetic () =
  check_q "1/2 + 1/3" (of_ints 5 6) (Q.add (of_ints 1 2) (of_ints 1 3));
  check_q "1/2 - 1/3" (of_ints 1 6) (Q.sub (of_ints 1 2) (of_ints 1 3));
  check_q "2/3 * 3/4" (of_ints 1 2) (Q.mul (of_ints 2 3) (of_ints 3 4));
  check_q "(1/2) / (3/4)" (of_ints 2 3) (Q.div (of_ints 1 2) (of_ints 3 4));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Q.inv Q.zero))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.compare (of_ints 1 3) (of_ints 1 2) < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.compare (of_ints (-1) 2) (of_ints 1 3) < 0);
  Alcotest.(check int) "equal" 0 (Q.compare (of_ints 2 4) (of_ints 1 2))

let test_integer_view () =
  Alcotest.(check bool) "4/2 is integer" true (Q.is_integer (of_ints 4 2));
  Alcotest.(check bool) "1/2 not integer" false (Q.is_integer (of_ints 1 2));
  Alcotest.(check int) "to_zint" 2 (Z.to_int_exn (Q.to_zint_exn (of_ints 4 2)));
  Alcotest.check_raises "to_zint 1/2"
    (Failure "Qint.to_zint_exn: not an integer") (fun () ->
      ignore (Q.to_zint_exn (of_ints 1 2)))

let prop_field_axioms =
  prop "field axioms" QCheck.(triple arb_q arb_q arb_q) (fun (a, b, c) ->
      Q.equal (Q.add a b) (Q.add b a)
      && Q.equal (Q.mul a b) (Q.mul b a)
      && Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c))
      && Q.equal (Q.mul (Q.mul a b) c) (Q.mul a (Q.mul b c))
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_inverse =
  prop "mul inverse" arb_q (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal Q.one (Q.mul a (Q.inv a)))

let prop_sub_add =
  prop "a - b + b = a" QCheck.(pair arb_q arb_q) (fun (a, b) ->
      Q.equal a (Q.add (Q.sub a b) b))

let prop_den_positive =
  prop "den always positive" QCheck.(pair arb_q arb_q) (fun (a, b) ->
      Z.sign (Q.den (Q.mul a b)) > 0 && Z.sign (Q.den (Q.add a b)) > 0)

let () =
  Alcotest.run "rat"
    [
      ( "unit",
        [
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "integer view" `Quick test_integer_view;
        ] );
      ( "properties",
        [
          prop_field_axioms;
          prop_inverse;
          prop_sub_add;
          prop_den_positive;
        ] );
    ]
