module Z = Polysynth_zint.Zint
module Q = Polysynth_rat.Qint
module P = Polysynth_poly.Poly
module Mono = Polysynth_poly.Monomial
module Parse = Polysynth_poly.Parse
module E = Polysynth_expr.Expr
module Qp = Polysynth_groebner.Qpoly
module Gb = Polysynth_groebner.Buchberger

let p = Parse.poly_exn
let poly = Show.poly
let check_p = Alcotest.check poly

let prop name ?(count = 60) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let qp ?(ord = Qp.grlex) s = Qp.of_poly ord (p s)

(* qpoly ------------------------------------------------------------------------ *)

let test_lex_order () =
  let ord = Qp.lex [ "x"; "y" ] in
  let m s = snd (Qp.leading (Qp.of_poly ord (p s))) in
  (* under lex x > y, x dominates any power of y *)
  Alcotest.(check bool) "x > y^5" true (ord (m "x") (m "y^5") > 0);
  Alcotest.(check bool) "x^2 y > x y^3" true (ord (m "x^2*y") (m "x*y^3") > 0);
  (* leading term of x + y^5 under lex is x *)
  Alcotest.(check bool) "leading is x" true (Mono.equal (m "x + y^5") (m "x"))

let test_qpoly_roundtrip () =
  let q = qp "3*x^2 - 2*x*y + 7" in
  let z, d = Qp.to_poly q in
  Alcotest.(check bool) "denominator one" true (Z.is_one d);
  check_p "roundtrip" (p "3*x^2 - 2*x*y + 7") z

let test_qpoly_monic () =
  let q = Qp.monic (qp "4*x^2 + 8") in
  let c, _ = Qp.leading q in
  Alcotest.(check bool) "monic" true (Q.equal Q.one c);
  let z, d = Qp.to_poly q in
  check_p "x^2 + 2" (p "x^2 + 2") z;
  Alcotest.(check bool) "denom one after scaling" true (Z.is_one d)

(* reduction / s-polynomials ------------------------------------------------------ *)

let test_reduce_univariate () =
  (* x^2 + x + 1 mod {x - 2} -> 7 *)
  let ord = Qp.lex [ "x" ] in
  let nf = Gb.reduce [ Qp.of_poly ord (p "x - 2") ] (Qp.of_poly ord (p "x^2 + x + 1")) in
  let z, d = Qp.to_poly nf in
  Alcotest.(check bool) "denom 1" true (Z.is_one d);
  check_p "7" (p "7") z

let test_s_polynomial () =
  (* classic: f = x^2, g = x*y + 1 under grlex: S = -(x/y)*... compute and
     check it cancels the leading terms *)
  let f = qp "x^2" and g = qp "x*y + 1" in
  let s = Gb.s_polynomial f g in
  let z, _ = Qp.to_poly s in
  check_p "S-poly" (p "0 - x") z

(* buchberger ----------------------------------------------------------------------- *)

let test_basis_spolys_reduce_to_zero () =
  (* the defining property of a Groebner basis *)
  let gens = [ qp "x^2 + y"; qp "x*y + 1"; qp "y^3 - x" ] in
  let gb = Gb.basis gens in
  Alcotest.(check bool) "non-empty" true (List.length gb > 0);
  List.iteri
    (fun i gi ->
      List.iteri
        (fun j gj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "S(%d,%d) reduces to 0" i j)
              true
              (Qp.is_zero (Gb.reduce gb (Gb.s_polynomial gi gj))))
        gb)
    gb

let test_ideal_membership () =
  (* x^2 - 1 and x - 1 generate: x^2 - 1 in <x - 1, x + 1>? yes *)
  let ord = Qp.lex [ "x" ] in
  let gb = Gb.basis [ Qp.of_poly ord (p "x - 1"); Qp.of_poly ord (p "x + 1") ] in
  Alcotest.(check bool) "x^2-1 member" true
    (Gb.ideal_member gb (Qp.of_poly ord (p "x^2 - 1")));
  (* the ideal is actually <1> since (x+1)-(x-1)=2 *)
  Alcotest.(check bool) "1 member" true
    (Gb.ideal_member gb (Qp.of_poly ord (p "1")));
  let gb2 = Gb.basis [ Qp.of_poly ord (p "x^2 - 1") ] in
  Alcotest.(check bool) "x-1 not member of <x^2-1>" false
    (Gb.ideal_member gb2 (Qp.of_poly ord (p "x - 1")))

let test_basis_of_product_relations () =
  (* generators of a graph ideal: y - x^2, z - x^3; membership of z - x*y *)
  let ord = Qp.lex [ "z"; "y"; "x" ] in
  let gb =
    Gb.basis [ Qp.of_poly ord (p "y - x^2"); Qp.of_poly ord (p "z - x^3") ]
  in
  Alcotest.(check bool) "z - x*y in ideal" true
    (Gb.ideal_member gb (Qp.of_poly ord (p "z - x*y")))

(* library rewriting --------------------------------------------------------------- *)

let test_rewrite_perfect_square () =
  (* P1 of Table 14.1 over the block d = x + 3y rewrites to d^2 *)
  match
    Gb.rewrite_with_library
      ~library:[ ("d", p "x + 3*y") ]
      (p "x^2 + 6*x*y + 9*y^2")
  with
  | None -> Alcotest.fail "expected a rewrite"
  | Some (e, nf) ->
    check_p "normal form d^2" (p "d^2") nf;
    check_p "expr expands over d" (p "d^2") (E.to_poly e)

let test_rewrite_table_14_2 () =
  match
    Gb.rewrite_with_library
      ~library:[ ("d1", p "x + y"); ("d2", p "x - y") ]
      (List.hd Polysynth_workloads.Examples.table_14_2)
  with
  | None -> Alcotest.fail "expected a rewrite"
  | Some (_, nf) ->
    (* 13 d1^2 + 7 d2 + 11 *)
    check_p "13*d1^2 + 7*d2 + 11" (p "13*d1^2 + 7*d2 + 11") nf

let test_rewrite_no_progress () =
  Alcotest.(check bool) "unrelated block" true
    (Gb.rewrite_with_library ~library:[ ("d", p "q + w") ] (p "x^2 + 1") = None)

(* properties -------------------------------------------------------------------------- *)

let gen_poly =
  let open QCheck.Gen in
  let gen_mono =
    list_size (int_range 0 2) (pair (oneofl [ "x"; "y" ]) (int_range 1 2))
    >|= Mono.of_list
  in
  list_size (int_range 1 4) (pair (int_range (-5) 5) gen_mono)
  >|= fun ts -> P.of_terms (List.map (fun (c, m) -> (Z.of_int c, m)) ts)

let arb_gens =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 3) gen_poly)
    ~print:(fun l -> String.concat "; " (List.map P.to_string l))

let prop_groebner_property =
  prop "all S-polynomials of a basis reduce to zero" ~count:40 arb_gens
    (fun gens ->
      let qgens = List.map (Qp.of_poly Qp.grlex) gens in
      match Gb.basis ~max_steps:500 qgens with
      | exception Failure _ -> QCheck.assume_fail ()
      | gb ->
        List.for_all
          (fun gi ->
            List.for_all
              (fun gj ->
                Qp.is_zero gi || Qp.is_zero gj
                || Qp.is_zero (Gb.reduce gb (Gb.s_polynomial gi gj)))
              gb)
          gb)

let prop_generators_are_members =
  prop "generators belong to their own ideal" ~count:40 arb_gens (fun gens ->
      let qgens = List.map (Qp.of_poly Qp.grlex) gens in
      match Gb.basis ~max_steps:500 qgens with
      | exception Failure _ -> QCheck.assume_fail ()
      | gb ->
        List.for_all
          (fun g -> Qp.is_zero g || Gb.ideal_member gb g)
          qgens)

let prop_rewrite_sound =
  (* substituting the block definitions back must recover the input *)
  prop "library rewrite is sound" ~count:60
    (QCheck.make
       QCheck.Gen.(pair gen_poly gen_poly)
       ~print:(fun (a, b) -> P.to_string a ^ " | " ^ P.to_string b))
    (fun (target, block) ->
      QCheck.assume (not (P.is_zero block) && not (P.is_const block));
      match Gb.rewrite_with_library ~library:[ ("blk", block) ] target with
      | None -> true
      | Some (_, nf) -> P.equal target (P.subst "blk" block nf))

let () =
  Alcotest.run "groebner"
    [
      ( "qpoly",
        [
          Alcotest.test_case "lex order" `Quick test_lex_order;
          Alcotest.test_case "roundtrip" `Quick test_qpoly_roundtrip;
          Alcotest.test_case "monic" `Quick test_qpoly_monic;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "univariate" `Quick test_reduce_univariate;
          Alcotest.test_case "s-polynomial" `Quick test_s_polynomial;
        ] );
      ( "buchberger",
        [
          Alcotest.test_case "S-polys reduce to zero" `Quick
            test_basis_spolys_reduce_to_zero;
          Alcotest.test_case "ideal membership" `Quick test_ideal_membership;
          Alcotest.test_case "graph ideal" `Quick test_basis_of_product_relations;
        ] );
      ( "library rewriting",
        [
          Alcotest.test_case "perfect square" `Quick test_rewrite_perfect_square;
          Alcotest.test_case "table 14.2" `Quick test_rewrite_table_14_2;
          Alcotest.test_case "no progress" `Quick test_rewrite_no_progress;
        ] );
      ( "properties",
        [ prop_groebner_property; prop_generators_are_members; prop_rewrite_sound ] );
    ]
