module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Mono = Polysynth_poly.Monomial
module Parse = Polysynth_poly.Parse
module E = Polysynth_expr.Expr
module Ted = Polysynth_ted.Ted

let p = Parse.poly_exn
let poly = Show.poly
let check_p = Alcotest.check poly

let prop name ?(count = 300) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let gen_poly =
  let open QCheck.Gen in
  let gen_mono =
    list_size (int_range 0 3) (pair (oneofl [ "x"; "y"; "z" ]) (int_range 1 3))
    >|= Mono.of_list
  in
  list_size (int_range 0 6) (pair (int_range (-9) 9) gen_mono)
  >|= fun terms ->
  P.of_terms (List.map (fun (c, m) -> (Z.of_int c, m)) terms)

let arb_poly = QCheck.make gen_poly ~print:P.to_string

let arb_pair =
  QCheck.make
    QCheck.Gen.(pair gen_poly gen_poly)
    ~print:(fun (a, b) -> P.to_string a ^ " || " ^ P.to_string b)

(* unit ------------------------------------------------------------------------- *)

let test_leaves () =
  let m = Ted.create () in
  let zero () = Ted.leaf m Z.zero in
  Alcotest.(check bool) "zero shared" true (Ted.equal (zero ()) (zero ()));
  Alcotest.(check bool) "one <> zero" false (Ted.equal (Ted.leaf m Z.one) (zero ()));
  check_p "leaf value" (p "7") (Ted.to_poly m (Ted.leaf m (Z.of_int 7)))

let test_of_poly_roundtrip () =
  let m = Ted.create () in
  List.iter
    (fun s -> check_p s (p s) (Ted.to_poly m (Ted.of_poly m (p s))))
    [ "x^2 + 6*x*y + 9*y^2"; "0"; "42"; "x*y*z - 3"; "x^5 - x" ]

let test_sharing_across_system () =
  (* two polynomials sharing the sub-function (y^2 + 3) under x *)
  let m = Ted.create () in
  let _ = Ted.of_poly m (p "x*y^2 + 3*x + 1") in
  let n1 = Ted.num_nodes m in
  (* same x-cofactor appears again: few new nodes *)
  let _ = Ted.of_poly m (p "x*y^2 + 3*x + 9") in
  let n2 = Ted.num_nodes m in
  Alcotest.(check bool)
    (Printf.sprintf "second poly adds few nodes (%d -> %d)" n1 n2)
    true
    (n2 - n1 <= 2)

let test_decompose_horner_shape () =
  let m = Ted.create () in
  let t = Ted.of_poly m (p "x^2 + x + 1") in
  let e = Ted.decompose m t in
  check_p "expands back" (p "x^2 + x + 1") (E.to_poly e);
  (* Horner shape: 2 mults (x*(x+1)... ) at most *)
  let c = Polysynth_expr.Dag.tree_counts e in
  Alcotest.(check bool) "horner-like cost" true (c.Polysynth_expr.Dag.mults <= 2)

let test_custom_order () =
  let m = Ted.create ~order:[ "y"; "x" ] () in
  let t = Ted.of_poly m (p "x*y + x + y + 1") in
  check_p "order-independent value" (p "x*y + x + y + 1") (Ted.to_poly m t)

(* properties -------------------------------------------------------------------- *)

let prop_roundtrip =
  prop "of_poly/to_poly roundtrip" arb_poly (fun q ->
      let m = Ted.create () in
      P.equal q (Ted.to_poly m (Ted.of_poly m q)))

let prop_canonical =
  prop "node equality = polynomial equality" arb_pair (fun (a, b) ->
      let m = Ted.create () in
      let ta = Ted.of_poly m a and tb = Ted.of_poly m b in
      Ted.equal ta tb = P.equal a b)

let prop_decompose_exact =
  prop "decompose expands back" arb_poly (fun a ->
      let m = Ted.create () in
      P.equal a (E.to_poly (Ted.decompose m (Ted.of_poly m a))))

let prop_order_independent_value =
  prop "any variable order represents the same polynomial" arb_poly (fun a ->
      let m1 = Ted.create ~order:[ "z"; "y"; "x" ] () in
      let m2 = Ted.create ~order:[ "x"; "z"; "y" ] () in
      P.equal
        (Ted.to_poly m1 (Ted.of_poly m1 a))
        (Ted.to_poly m2 (Ted.of_poly m2 a)))

let () =
  Alcotest.run "ted"
    [
      ( "unit",
        [
          Alcotest.test_case "leaves" `Quick test_leaves;
          Alcotest.test_case "roundtrip" `Quick test_of_poly_roundtrip;
          Alcotest.test_case "sharing across system" `Quick
            test_sharing_across_system;
          Alcotest.test_case "decompose horner shape" `Quick
            test_decompose_horner_shape;
          Alcotest.test_case "custom order" `Quick test_custom_order;
        ] );
      ( "properties",
        [
          prop_roundtrip;
          prop_canonical;
          prop_decompose_exact;
          prop_order_independent_value;
        ] );
    ]
