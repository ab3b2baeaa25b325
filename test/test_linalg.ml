module Q = Polysynth_rat.Qint
module M = Polysynth_linalg.Qmatrix

let qi = Q.of_int

(* the matrix with the given rows, which are non-empty and of one length *)
let of_lists rows =
  M.make (List.length rows) (List.length (List.hd rows)) (fun i j ->
      List.nth (List.nth rows i) j)

let to_lists m = List.init (M.rows m) (fun i -> List.init (M.cols m) (M.get m i))
let m33 rows = of_lists (List.map (List.map qi) rows)

let equal a b = List.equal (List.equal Q.equal) (to_lists a) (to_lists b)

let to_string m =
  String.concat "; "
    (List.map (fun r -> String.concat ", " (List.map Show.q_to_string r)) (to_lists m))

let matrix = Show.testable to_string equal

let test_of_lists () =
  let m = m33 [ [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check int) "rows" 2 (M.rows m);
  Alcotest.(check int) "cols" 2 (M.cols m);
  Alcotest.(check bool) "entry" true (Q.equal (qi 3) (M.get m 1 0));
  Alcotest.check_raises "empty" (Invalid_argument "Qmatrix.make: bad dimensions")
    (fun () -> ignore (M.make 0 2 (fun _ _ -> Q.zero)))

let test_identity_mul () =
  let a = m33 [ [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.check matrix "a * I = a" a (M.mul a (M.identity 2));
  Alcotest.check matrix "I * a = a" a (M.mul (M.identity 2) a);
  let b = m33 [ [ 5; 6 ]; [ 7; 8 ] ] in
  Alcotest.check matrix "a*b" (m33 [ [ 19; 22 ]; [ 43; 50 ] ]) (M.mul a b);
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Qmatrix.mul: dimension mismatch") (fun () ->
      ignore (M.mul a (M.identity 3)))

let test_transpose () =
  let a = m33 [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] in
  Alcotest.check matrix "transpose" (m33 [ [ 1; 4 ]; [ 2; 5 ]; [ 3; 6 ] ])
    (M.transpose a);
  Alcotest.check matrix "involutive" a (M.transpose (M.transpose a))

let test_solve () =
  (* x + 2y = 5; 3x + 4y = 11  =>  x = 1, y = 2 *)
  let a = m33 [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = m33 [ [ 5 ]; [ 11 ] ] in
  (match M.solve a b with
   | None -> Alcotest.fail "expected a solution"
   | Some x -> Alcotest.check matrix "solution" (m33 [ [ 1 ]; [ 2 ] ]) x);
  let singular = m33 [ [ 1; 2 ]; [ 2; 4 ] ] in
  Alcotest.(check bool) "singular" true (M.solve singular b = None)

let test_solve_needs_pivot () =
  (* leading zero forces a row swap *)
  let a = m33 [ [ 0; 1 ]; [ 1; 0 ] ] in
  let b = m33 [ [ 3 ]; [ 7 ] ] in
  match M.solve a b with
  | None -> Alcotest.fail "expected a solution"
  | Some x -> Alcotest.check matrix "swap solution" (m33 [ [ 7 ]; [ 3 ] ]) x

let test_inverse () =
  let a = m33 [ [ 2; 0 ]; [ 0; 4 ] ] in
  (match M.inverse a with
   | None -> Alcotest.fail "expected invertible"
   | Some inv ->
     Alcotest.check matrix "a * a^-1 = I" (M.identity 2) (M.mul a inv));
  let frac n d = Q.div (qi n) (qi d) in
  let rational = of_lists [ [ frac 1 2; frac 1 3 ]; [ frac 1 4; frac 1 5 ] ] in
  match M.inverse rational with
  | None -> Alcotest.fail "expected invertible rational"
  | Some inv ->
    Alcotest.check matrix "rational inverse" (M.identity 2) (M.mul rational inv)

let arb_matrix3 =
  let gen =
    QCheck.Gen.array_size (QCheck.Gen.return 9) (QCheck.Gen.int_range (-20) 20)
  in
  QCheck.make
    (QCheck.Gen.map
       (fun a -> M.make 3 3 (fun i j -> qi a.((3 * i) + j)))
       gen)
    ~print:to_string

let prop name ?(count = 200) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let prop_inverse_roundtrip =
  prop "inverse is two-sided" arb_matrix3 (fun a ->
      match M.inverse a with
      | None -> true (* singular matrices are allowed *)
      | Some inv ->
        equal (M.identity 3) (M.mul a inv)
        && equal (M.identity 3) (M.mul inv a))

let prop_solve_satisfies =
  prop "solve satisfies a*x = b" QCheck.(pair arb_matrix3 arb_matrix3)
    (fun (a, b) ->
      match M.solve a b with
      | None -> true
      | Some x -> equal b (M.mul a x))

let prop_transpose_mul =
  prop "(ab)^T = b^T a^T" QCheck.(pair arb_matrix3 arb_matrix3) (fun (a, b) ->
      equal (M.transpose (M.mul a b)) (M.mul (M.transpose b) (M.transpose a)))

let () =
  Alcotest.run "linalg"
    [
      ( "unit",
        [
          Alcotest.test_case "of_lists" `Quick test_of_lists;
          Alcotest.test_case "identity/mul" `Quick test_identity_mul;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "solve" `Quick test_solve;
          Alcotest.test_case "solve with pivoting" `Quick test_solve_needs_pivot;
          Alcotest.test_case "inverse" `Quick test_inverse;
        ] );
      ( "properties",
        [ prop_inverse_roundtrip; prop_solve_satisfies; prop_transpose_mul ] );
    ]
