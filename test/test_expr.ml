module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Parse = Polysynth_poly.Parse
module Mono = Polysynth_poly.Monomial
module E = Polysynth_expr.Expr
module Dag = Polysynth_expr.Dag
module Prog = Polysynth_expr.Prog

let p = Parse.poly_exn
let poly = Alcotest.testable P.pp P.equal
let expr = Alcotest.testable E.pp E.equal

let prop name ?(count = 300) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* generators ------------------------------------------------------------------ *)

let gen_expr =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then
            oneof
              [ map E.int (int_range (-9) 9);
                map E.var (oneofl [ "x"; "y"; "z" ]) ]
          else
            oneof
              [
                map E.var (oneofl [ "x"; "y"; "z" ]);
                map E.int (int_range (-9) 9);
                map E.neg (self (n - 1));
                map2
                  (fun a b -> E.add [ a; b ])
                  (self (n / 2)) (self (n / 2));
                map2 (fun a b -> E.sub a b) (self (n / 2)) (self (n / 2));
                map2
                  (fun a b -> E.mul [ a; b ])
                  (self (n / 2)) (self (n / 2));
                map2 (fun e k -> E.pow e k) (self (n / 2)) (int_range 0 3);
              ])
        (min n 12))

let arb_expr = QCheck.make gen_expr ~print:E.to_string

let gen_env =
  QCheck.Gen.(
    map
      (fun (a, b, c) -> [ ("x", a); ("y", b); ("z", c) ])
      (triple (int_range (-8) 8) (int_range (-8) 8) (int_range (-8) 8)))

let env_fn bindings v =
  match List.assoc_opt v bindings with Some n -> Z.of_int n | None -> Z.zero

let arb_expr_env =
  QCheck.make QCheck.Gen.(pair gen_expr gen_env) ~print:(fun (e, _) -> E.to_string e)

(* normalization ---------------------------------------------------------------- *)

let test_constructors () =
  Alcotest.check expr "add flattens"
    (E.add [ E.var "x"; E.var "y"; E.var "z" ])
    (E.add [ E.add [ E.var "x"; E.var "y" ]; E.var "z" ]);
  Alcotest.check expr "consts fold"
    (E.int 5)
    (E.add [ E.int 2; E.int 3 ]);
  Alcotest.check expr "mul by zero" E.zero (E.mul [ E.var "x"; E.zero ]);
  Alcotest.check expr "mul by one" (E.var "x") (E.mul [ E.var "x"; E.one ]);
  Alcotest.check expr "double neg" (E.var "x") (E.neg (E.neg (E.var "x")));
  Alcotest.check expr "pow 1" (E.var "x") (E.pow (E.var "x") 1);
  Alcotest.check expr "pow 0" E.one (E.pow (E.var "x") 0);
  Alcotest.check expr "pow of pow" (E.pow (E.var "x") 6)
    (E.pow (E.pow (E.var "x") 2) 3);
  Alcotest.check expr "sign pulled out of product"
    (E.neg (E.mul [ E.var "x"; E.int 3 ]))
    (E.mul [ E.var "x"; E.int (-3) ]);
  Alcotest.check expr "repeated factors group"
    (E.mul [ E.pow (E.var "x") 2; E.var "y" ])
    (E.mul [ E.var "x"; E.var "y"; E.var "x" ])

let test_commutativity_normal_form () =
  Alcotest.check expr "add commutes structurally"
    (E.add [ E.var "x"; E.var "y" ])
    (E.add [ E.var "y"; E.var "x" ]);
  Alcotest.check expr "mul commutes structurally"
    (E.mul [ E.var "x"; E.var "y" ])
    (E.mul [ E.var "y"; E.var "x" ])

let test_pp () =
  let check name s e = Alcotest.(check string) name s (E.to_string e) in
  check "sum" "x + y" (E.add [ E.var "x"; E.var "y" ]);
  check "sub" "x - y" (E.sub (E.var "x") (E.var "y"));
  check "mul const last" "x*3" (E.mul [ E.int 3; E.var "x" ]);
  check "pow of sum" "(x + y)^2" (E.pow (E.add [ E.var "x"; E.var "y" ]) 2);
  check "mul of sums" "(x + y)*(x - y)"
    (E.mul [ E.add [ E.var "x"; E.var "y" ]; E.sub (E.var "x") (E.var "y") ])

(* conversions ------------------------------------------------------------------ *)

let test_of_poly_roundtrip () =
  let cases =
    [ "x^2 + 6*x*y + 9*y^2"; "4*x*y^2 + 12*y^3"; "0"; "7"; "-x + 1" ]
  in
  List.iter
    (fun s -> Alcotest.check poly s (p s) (E.to_poly (E.of_poly (p s))))
    cases

let test_to_poly_factored () =
  Alcotest.check poly "13*(x+y)^2 + 7*(x-y) + 11"
    (p "13*x^2 + 26*x*y + 13*y^2 + 7*x - 7*y + 11")
    (E.to_poly
       (E.add
          [ E.mul [ E.int 13; E.pow (E.add [ E.var "x"; E.var "y" ]) 2 ];
            E.mul [ E.int 7; E.sub (E.var "x") (E.var "y") ];
            E.int 11 ]))

(* dag and cost counting ---------------------------------------------------------- *)

let table_14_1_direct =
  List.map
    (fun s -> E.of_poly (p s))
    [ "x^2 + 6*x*y + 9*y^2"; "4*x*y^2 + 12*y^3"; "2*x^2*z + 6*x*y*z" ]

let test_tree_counts_table_14_1 () =
  (* the paper's "direct implementation": 17 multipliers, 4 adders *)
  let total =
    List.fold_left
      (fun acc e ->
        let c = Dag.tree_counts e in
        Dag.{ mults = acc.mults + c.mults;
              const_mults = acc.const_mults + c.const_mults;
              adds = acc.adds + c.adds })
      Dag.zero_counts table_14_1_direct
  in
  Alcotest.(check int) "17 MULT" 17 total.Dag.mults;
  Alcotest.(check int) "4 ADD" 4 total.Dag.adds;
  (* the flat count read off the terms agrees, down to the free
     constants and negations *)
  Alcotest.(check int) "poly_ops 21" 21
    (List.fold_left
       (fun acc e -> acc + Dag.poly_ops (E.to_poly e))
       0 table_14_1_direct);
  List.iter
    (fun (s, ops) ->
      Alcotest.(check int) ("poly_ops " ^ s) ops (Dag.poly_ops (p s));
      Alcotest.(check int) ("tree_ops " ^ s) ops
        (Dag.tree_ops (E.of_poly (p s))))
    [ ("0", 0); ("1", 0); ("-1", 0); ("-5", 0); ("-x", 0); ("3*x^2*y", 3) ]

let proposed_14_1 =
  (* d1 = x + 3y; P1 = d1^2; P2 = 4y^2*d1; P3 = 2xz*d1 *)
  Prog.
    {
      bindings =
        [ ("d1", E.add [ E.var "x"; E.mul [ E.int 3; E.var "y" ] ]) ];
      outputs =
        [
          ("P1", E.pow (E.var "d1") 2);
          ("P2", E.mul [ E.int 4; E.pow (E.var "y") 2; E.var "d1" ]);
          ("P3", E.mul [ E.int 2; E.var "x"; E.var "z"; E.var "d1" ]);
        ];
    }

let test_dag_counts_proposed_14_1 () =
  (* the paper's proposed decomposition: 8 multipliers, 1 adder *)
  let c = Prog.counts proposed_14_1 in
  Alcotest.(check int) "8 MULT" 8 c.Dag.mults;
  Alcotest.(check int) "1 ADD" 1 c.Dag.adds

let test_proposed_14_1_correct () =
  let polys = Prog.to_polys proposed_14_1 in
  Alcotest.check poly "P1" (p "x^2 + 6*x*y + 9*y^2") (List.assoc "P1" polys);
  Alcotest.check poly "P2" (p "4*x*y^2 + 12*y^3") (List.assoc "P2" polys);
  Alcotest.check poly "P3" (p "2*x^2*z + 6*x*y*z") (List.assoc "P3" polys)

let test_dag_sharing () =
  (* x*y + x*y costs one multiplication and one addition after CSE *)
  let dag = Dag.create () in
  let e = E.add [ E.mul [ E.var "x"; E.var "y" ]; E.mul [ E.var "y"; E.var "x" ] ] in
  ignore (Dag.add_expr dag e);
  (* the smart constructor already folds this to 2*x*y; check at dag level
     with two separately-built expressions instead *)
  let dag = Dag.create () in
  let a = Dag.add_expr dag (E.mul [ E.var "x"; E.var "y"; E.int 3 ]) in
  let b = Dag.add_expr dag (E.mul [ E.var "x"; E.var "y"; E.int 5 ]) in
  let c = Dag.counts dag ~roots:[ a; b ] in
  (* x*y shared; two constant mults on top *)
  Alcotest.(check int) "3 mults" 3 c.Dag.mults;
  Alcotest.(check int) "2 const mults" 2 c.Dag.const_mults

let test_power_prefix_sharing () =
  let dag = Dag.create () in
  let a = Dag.add_expr dag (E.pow (E.var "y") 2) in
  let b = Dag.add_expr dag (E.pow (E.var "y") 3) in
  let c = Dag.counts dag ~roots:[ a; b ] in
  (* y^2 = y*y, y^3 = y^2*y: two mults total *)
  Alcotest.(check int) "2 mults" 2 c.Dag.mults

let test_dag_eval () =
  let dag = Dag.create () in
  let e = E.sub (E.mul [ E.var "x"; E.var "y" ]) (E.int 5) in
  let id = Dag.add_expr dag e in
  let env v = if String.equal v "x" then Z.of_int 6 else Z.of_int 7 in
  Alcotest.(check int) "6*7-5" 37 (Z.to_int_exn (Dag.eval dag env id))

(* program ------------------------------------------------------------------------- *)

let test_prog_eval () =
  let results =
    Prog.eval proposed_14_1 (fun v ->
        match v with
        | "x" -> Z.of_int 2
        | "y" -> Z.of_int 1
        | "z" -> Z.of_int 3
        | _ -> Z.zero)
  in
  (* d1 = 5; P1 = 25; P2 = 4*1*5 = 20; P3 = 2*2*3*5 = 60 *)
  Alcotest.(check int) "P1" 25 (Z.to_int_exn (List.assoc "P1" results));
  Alcotest.(check int) "P2" 20 (Z.to_int_exn (List.assoc "P2" results));
  Alcotest.(check int) "P3" 60 (Z.to_int_exn (List.assoc "P3" results))

let test_rename_fresh () =
  let renamed = Prog.rename_fresh ~prefix:"blk_" proposed_14_1 in
  Alcotest.(check string) "binding renamed" "blk_d1" (fst (List.hd renamed.Prog.bindings));
  let polys = Prog.to_polys renamed in
  Alcotest.check poly "still correct" (p "x^2 + 6*x*y + 9*y^2")
    (List.assoc "P1" polys)

(* program parsing --------------------------------------------------------------- *)

module PP = Polysynth_expr.Prog_parse

let test_prog_parse_basic () =
  let prog =
    PP.program_exn
      "d1 = x + 3*y  # block\nP1 = d1^2; P2 = 4*y^2*d1\nP3 = 2*x*z*d1"
  in
  Alcotest.(check int) "one binding" 1 (List.length prog.Prog.bindings);
  Alcotest.(check int) "three outputs" 3 (List.length prog.Prog.outputs);
  let polys = Prog.to_polys prog in
  Alcotest.check poly "P1 expands" (p "x^2 + 6*x*y + 9*y^2")
    (List.assoc "P1" polys)

let test_prog_parse_chained_bindings () =
  let prog = PP.program_exn "a = x + 1\nb = a*a\nout = b + a" in
  Alcotest.(check int) "two bindings" 2 (List.length prog.Prog.bindings);
  Alcotest.check poly "expansion" (p "x^2 + 3*x + 2")
    (List.assoc "out" (Prog.to_polys prog))

let test_prog_parse_errors () =
  let bad s sub =
    match PP.program s with
    | Error (`Parse msg) ->
      Alcotest.(check bool) (s ^ " mentions " ^ sub) true
        (let rec contains i =
           i + String.length sub <= String.length msg
           && (String.sub msg i (String.length sub) = sub || contains (i + 1))
         in
         contains 0)
    | Ok _ -> Alcotest.fail ("expected error for " ^ s)
  in
  bad "x + 1" "missing '='";
  bad "a = x\na = y\nz = a" "duplicate";
  bad "a = b + 1\nb = x\nout = a + b" "forward reference";
  bad "t = t + 1\nP1 = t*x" "t refers to itself";
  bad "" "empty";
  bad "1bad = x\nout = 1bad" "bad definition name"

(* properties ------------------------------------------------------------------------ *)

let prop_eval_matches_poly =
  prop "Expr.eval = Poly.eval after to_poly" arb_expr_env (fun (e, env) ->
      Z.equal (E.eval (env_fn env) e) (P.eval (env_fn env) (E.to_poly e)))

let prop_dag_eval_matches =
  prop "Dag.eval = Expr.eval" arb_expr_env (fun (e, env) ->
      let dag = Dag.create () in
      let id = Dag.add_expr dag e in
      Z.equal (Dag.eval dag (env_fn env) id) (E.eval (env_fn env) e))

let prop_of_poly_exact =
  prop "of_poly/to_poly identity" arb_expr (fun e ->
      let q = E.to_poly e in
      P.equal q (E.to_poly (E.of_poly q)))

(* the direct form as the smart constructors build it, kept as the
   reference for [of_poly]'s construction of the same value *)
let reference_of_poly q =
  E.add
    (List.map
       (fun (c, m) ->
         E.mul
           (E.const c
           :: List.map (fun (v, e) -> E.pow (E.var v) e) (Mono.to_list m)))
       (P.terms q))

let prop_of_poly_reference =
  prop "of_poly builds the smart constructors' form"
    QCheck.(pair arb_expr (int_range 0 30))
    (fun (e, k) ->
      (* scaled by 10^k: coefficients of one limb and of several *)
      let q = P.mul_scalar (Z.pow (Z.of_int 10) k) (E.to_poly e) in
      E.of_poly q = reference_of_poly q)

let prop_dag_counts_at_most_tree =
  prop "sharing never increases cost" arb_expr (fun e ->
      let dag = Dag.create () in
      let id = Dag.add_expr dag e in
      let shared = Dag.counts dag ~roots:[ id ] in
      let tree = Dag.tree_counts e in
      Dag.total_ops shared <= Dag.total_ops tree)

let prop_pp_parses_to_same_poly =
  prop "pretty output parses to the same polynomial" arb_expr (fun e ->
      P.equal (E.to_poly e) (Parse.poly_exn (E.to_string e)))

let prop_subst_identity =
  prop "identity substitution is identity" arb_expr (fun e ->
      E.equal e (E.subst (fun _ -> None) e))

let prop_vars_sound =
  prop "eval only depends on reported vars" arb_expr_env (fun (e, env) ->
      let vs = E.vars e in
      let masked v =
        if List.mem v vs then env_fn env v else Z.of_int 999
      in
      Z.equal (E.eval (env_fn env) e) (E.eval masked e))

let prop_size_positive =
  prop "size >= 1" arb_expr (fun e -> E.size e >= 1)

let prop_tree_counts_nonnegative =
  prop "tree counts are non-negative" arb_expr (fun e ->
      let c = Dag.tree_counts e in
      c.Dag.mults >= 0 && c.Dag.adds >= 0 && c.Dag.const_mults <= c.Dag.mults)

let prop_tree_ops =
  prop "tree_ops is total_ops of tree_counts"
    QCheck.(pair arb_expr arb_expr)
    (fun (e, f) ->
      List.for_all
        (fun e -> Dag.tree_ops e = Dag.total_ops (Dag.tree_counts e))
        [ e; E.of_poly (E.to_poly e); E.mul [ e; f ]; E.add [ e; E.neg f ] ]
      && Dag.poly_ops (E.to_poly e) = Dag.tree_ops (E.of_poly (E.to_poly e)))

let prop_compare_total_order =
  prop "compare is a total order" QCheck.(pair arb_expr arb_expr)
    (fun (a, b) ->
      let c1 = E.compare a b and c2 = E.compare b a in
      (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0))

let () =
  Alcotest.run "expr"
    [
      ( "normalization",
        [
          Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "commutative normal form" `Quick
            test_commutativity_normal_form;
          Alcotest.test_case "pretty printing" `Quick test_pp;
        ] );
      ( "conversions",
        [
          Alcotest.test_case "of_poly roundtrip" `Quick test_of_poly_roundtrip;
          Alcotest.test_case "factored to_poly" `Quick test_to_poly_factored;
        ] );
      ( "cost",
        [
          Alcotest.test_case "Table 14.1 direct = 17/4" `Quick
            test_tree_counts_table_14_1;
          Alcotest.test_case "Table 14.1 proposed = 8/1" `Quick
            test_dag_counts_proposed_14_1;
          Alcotest.test_case "proposed 14.1 is correct" `Quick
            test_proposed_14_1_correct;
          Alcotest.test_case "dag sharing" `Quick test_dag_sharing;
          Alcotest.test_case "power prefix sharing" `Quick
            test_power_prefix_sharing;
          Alcotest.test_case "dag eval" `Quick test_dag_eval;
        ] );
      ( "program",
        [
          Alcotest.test_case "eval" `Quick test_prog_eval;
          Alcotest.test_case "rename_fresh" `Quick test_rename_fresh;
          Alcotest.test_case "parse basic" `Quick test_prog_parse_basic;
          Alcotest.test_case "parse chained" `Quick test_prog_parse_chained_bindings;
          Alcotest.test_case "parse errors" `Quick test_prog_parse_errors;
        ] );
      ( "properties",
        [
          prop_eval_matches_poly;
          prop_dag_eval_matches;
          prop_of_poly_exact;
          prop_of_poly_reference;
          prop_dag_counts_at_most_tree;
          prop_pp_parses_to_same_poly;
          prop_subst_identity;
          prop_vars_sound;
          prop_size_positive;
          prop_tree_counts_nonnegative;
          prop_tree_ops;
          prop_compare_total_order;
        ] );
    ]
