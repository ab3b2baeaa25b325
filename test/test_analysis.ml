(* Tests for the static-analysis layer: well-formedness, width soundness,
   equivalence certification (including the constructive counterexample
   over Z_2^m), redundancy lint, and the suite facade. *)

module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Parse = Polysynth_poly.Parse
module Expr = Polysynth_expr.Expr
module Prog = Polysynth_expr.Prog
module Netlist = Polysynth_hw.Netlist
module Canonical = Polysynth_finite_ring.Canonical
module Diag = Polysynth_analysis.Diag
module Wellformed = Polysynth_analysis.Wellformed
module Widths = Polysynth_analysis.Widths
module Equiv = Polysynth_analysis.Equiv
module Redundancy = Polysynth_analysis.Redundancy
module Simplify = Polysynth_analysis.Simplify
module Suite = Polysynth_analysis.Suite
module Engine = Polysynth_core.Engine
module B = Polysynth_workloads.Benchmarks

let poly s = List.hd (Parse.system_exn s)
let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diag.code) ds)
let has_code c ds = List.mem c (codes ds)

let env_of point v =
  match List.assoc_opt v point with Some x -> x | None -> Z.zero

(* ---- well-formedness --------------------------------------------------- *)

let test_wf_clean () =
  let prog =
    {
      Prog.bindings = [ ("d1", Expr.add [ Expr.var "x"; Expr.var "y" ]) ];
      outputs = [ ("P1", Expr.mul [ Expr.var "d1"; Expr.var "d1" ]) ];
    }
  in
  Alcotest.(check (list string)) "no findings" [] (codes (Wellformed.check_prog prog))

let test_wf_bad_prog () =
  let prog =
    {
      Prog.bindings =
        [
          ("a", Expr.var "b");  (* use before def *)
          ("b", Expr.var "x");
          ("b", Expr.var "y");  (* duplicate *)
          ("dead", Expr.var "x");  (* never used *)
        ];
      outputs = [ ("P1", Expr.var "a"); ("P1", Expr.var "b") ];
    }
  in
  let ds = Wellformed.check_prog prog in
  Alcotest.(check bool) "has errors" true (Diag.has_errors ds);
  List.iter
    (fun c -> Alcotest.(check bool) c true (has_code c ds))
    [
      "wf.use-before-def";
      "wf.duplicate-binding";
      "wf.duplicate-output";
      "wf.dead-binding";
    ]

let test_wf_bad_netlist () =
  let n =
    {
      Netlist.cells =
        [|
          { Netlist.id = 0; op = Netlist.Add2; fanin = [ 0; 5 ] };
        |];
      outputs = [ ("P1", 0); ("P1", 0) ];
      width = 8;
    }
  in
  let ds = Wellformed.check_netlist n in
  Alcotest.(check bool) "has errors" true (Diag.has_errors ds);
  List.iter
    (fun c -> Alcotest.(check bool) c true (has_code c ds))
    [ "wf.fanin-order"; "wf.fanin-range"; "wf.duplicate-output" ]

(* ---- width soundness --------------------------------------------------- *)

let test_widths_modes () =
  let n = Netlist.of_prog ~width:8 (Prog.of_exprs
    [ Expr.mul [ Expr.var "x"; Expr.var "y" ] ]) in
  let exact = Widths.check_netlist ~mode:Widths.Exact n in
  let ring = Widths.check_netlist ~mode:Widths.Ring n in
  Alcotest.(check bool) "overflow flagged" true (has_code "width.overflow" exact);
  Alcotest.(check bool) "exact mode warns" true
    (List.exists (fun d -> d.Diag.severity = Diag.Warning) exact);
  Alcotest.(check bool) "ring mode wraps" true (has_code "width.wrap" ring);
  Alcotest.(check bool) "ring mode stays info" true
    (List.for_all (fun d -> d.Diag.severity = Diag.Info) ring);
  (* neither mode reaches Error severity: benchmarks must pass CI lint *)
  Alcotest.(check bool) "no errors" true
    (not (Diag.has_errors exact) && not (Diag.has_errors ring))

let test_widths_no_input_findings () =
  (* a bare input cannot overflow its own datapath *)
  let n = Netlist.of_prog ~width:8 (Prog.of_exprs [ Expr.var "x" ]) in
  Alcotest.(check (list string)) "no findings" []
    (codes (Widths.check_netlist ~mode:Widths.Exact n))

(* ---- pre-wrap ranges and bit growth ------------------------------------- *)

(* the exact interval of each cell, inputs unsigned full-scale *)
module Int_interval = Polysynth_analysis.Domains.Int_interval
module Int_intervals = Polysynth_analysis.Absint.Make (Int_interval)

let netlist8 s = Netlist.of_prog ~width:8 (Prog.of_exprs [ Expr.of_poly (poly s) ])

let output_range n =
  let facts = Int_intervals.analyze n in
  Option.get (Int_interval.range facts.(List.assoc "P1" n.Netlist.outputs))

let test_range_simple () =
  let n = netlist8 "x + y" in
  let lo, hi = output_range n in
  Alcotest.(check int) "max 255+255" 510 (Z.to_int_exn hi);
  Alcotest.(check int) "min 0" 0 (Z.to_int_exn lo);
  (* 510 needs 10 bits in two's complement *)
  Alcotest.(check int) "required width" 10 (Widths.required_width ~lo ~hi)

let test_range_mult_growth () =
  let n = netlist8 "x*y" in
  (* 255*255 = 65025 needs 17 signed bits *)
  Alcotest.(check int) "max width" 17 (Widths.max_required_width n);
  Alcotest.(check int) "growth" 9 (Widths.growth n)

let test_range_negative () =
  let n = netlist8 "x - y" in
  let lo, _ = output_range n in
  Alcotest.(check int) "min -255" (-255) (Z.to_int_exn lo)

(* ---- equivalence certification ----------------------------------------- *)

let test_certify_verified () =
  let p = poly "13*x^2 + 26*x*y + 13*y^2 + 7*x - 7*y + 11" in
  let prog = Prog.of_exprs [ Expr.of_poly p ] in
  Alcotest.(check string) "verified" "verified"
    (Equiv.cert_label (Equiv.certify [ p ] prog))

let check_counterexample ?ctx p prog ce =
  (* the counterexample must actually witness the disagreement *)
  let env = env_of ce.Equiv.point in
  let expected =
    match ctx with
    | Some ctx -> Canonical.eval_mod ctx p env
    | None -> P.eval env p
  in
  Alcotest.(check string) "expected value recorded" (Z.to_string expected)
    (Z.to_string ce.Equiv.expected);
  let got =
    match List.assoc_opt ce.Equiv.output (Prog.eval prog env) with
    | None -> None
    | Some g ->
      Some
        (match ctx with
         | Some ctx -> Z.erem_pow2 g (Canonical.out_width ctx)
         | None -> g)
  in
  Alcotest.(check (option string)) "got value recorded"
    (Option.map Z.to_string got)
    (Option.map Z.to_string ce.Equiv.got);
  Alcotest.(check bool) "values actually disagree" true
    (match got with
     | None -> true
     | Some g -> not (Z.equal g expected))

let test_certify_refuted_exact () =
  (* hand-mutated decomposition: the constant term is off by one *)
  let p = poly "13*x^2 + 7*x + 11" in
  let bad = Prog.of_exprs [ Expr.of_poly (poly "13*x^2 + 7*x + 12") ] in
  match Equiv.certify [ p ] bad with
  | Equiv.Refuted ce -> check_counterexample p bad ce
  | c -> Alcotest.failf "expected Refuted, got %s" (Equiv.cert_to_string c)

let test_certify_constructive_ring_witness () =
  (* fault 4*x^2 - 4*x = 4*Y_2(x): zero at x in {0, 1} but 8 at x = 2
     modulo 2^4.  With samples:0 the random pre-filter is skipped, so the
     counterexample must come from the minimal-degree falling term of the
     canonical difference — the constructive witness x = 2. *)
  let ctx = Canonical.make_ctx ~out_width:4 () in
  let p = poly "x^3" in
  let bad = Prog.of_exprs [ Expr.of_poly (poly "x^3 + 4*x^2 - 4*x") ] in
  match Equiv.certify ~ctx ~samples:0 [ p ] bad with
  | Equiv.Refuted ce ->
    Alcotest.(check (list (pair string string)))
      "constructed point x=2"
      [ ("x", "2") ]
      (List.map (fun (v, x) -> (v, Z.to_string x)) ce.Equiv.point);
    check_counterexample ~ctx p bad ce
  | c -> Alcotest.failf "expected Refuted, got %s" (Equiv.cert_to_string c)

let test_certify_ring_vs_exact () =
  (* 8*x^2 - 8*x = 8*x*(x-1) is divisible by 16 for every integer x: a
     vanishing polynomial of Z_2^4, so the two sides are the same
     bit-vector function but different integer polynomials *)
  let ctx = Canonical.make_ctx ~out_width:4 () in
  let p = poly "x^3" in
  let prog = Prog.of_exprs [ Expr.of_poly (poly "x^3 + 8*x^2 - 8*x") ] in
  Alcotest.(check string) "ring: same function" "verified"
    (Equiv.cert_label (Equiv.certify ~ctx [ p ] prog));
  Alcotest.(check string) "exact: different polynomial" "refuted"
    (Equiv.cert_label (Equiv.certify [ p ] prog))

let test_certify_missing_output () =
  let p = poly "x + 1" in
  let prog =
    { Prog.bindings = []; outputs = [ ("Q1", Expr.var "x") ] }
  in
  match Equiv.certify [ p ] prog with
  | Equiv.Refuted ce ->
    Alcotest.(check string) "names the missing output" "P1" ce.Equiv.output;
    Alcotest.(check bool) "no value" true (ce.Equiv.got = None)
  | c -> Alcotest.failf "expected Refuted, got %s" (Equiv.cert_to_string c)

let test_certify_budget_unknown () =
  (* (x + y)^40 cubed via bindings: far beyond a tiny term budget *)
  let base = Expr.pow (Expr.add [ Expr.var "x"; Expr.var "y" ]) 40 in
  let prog =
    {
      Prog.bindings = [ ("d1", base) ];
      outputs = [ ("P1", Expr.pow (Expr.var "d1") 3) ];
    }
  in
  let p = List.assoc "P1" (Prog.to_polys prog) in
  match Equiv.certify ~size_budget:100 [ p ] prog with
  | Equiv.Unknown _ -> ()
  | c -> Alcotest.failf "expected Unknown, got %s" (Equiv.cert_to_string c)

let test_spot_check_netlist () =
  let p = poly "3*x*y + 5*x + 1" in
  let good = Netlist.of_prog ~width:8 (Prog.of_exprs [ Expr.of_poly p ]) in
  (match Equiv.spot_check_netlist [ p ] good with
   | Ok () -> ()
   | Error ce ->
     Alcotest.failf "good netlist refuted: %s"
       (Equiv.cert_to_string (Equiv.Refuted ce)));
  (* rewire the output to an input cell: a gross fault the sampler hits *)
  let bad = { good with Netlist.outputs = [ ("P1", 0) ] } in
  match Equiv.spot_check_netlist [ p ] bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corrupted netlist passed the spot check"

(* ---- redundancy lint ---------------------------------------------------- *)

let test_lint_prog () =
  let xy = Expr.add [ Expr.var "x"; Expr.var "y" ] in
  let prog =
    {
      Prog.bindings =
        [ ("d1", xy); ("d2", xy); ("d3", Expr.var "d2") ];
      outputs = [ ("P1", Expr.mul [ Expr.var "d1"; Expr.var "d3" ]) ];
    }
  in
  let ds = Redundancy.lint_prog prog in
  Alcotest.(check bool) "duplicate found" true
    (has_code "lint.duplicate-binding" ds);
  Alcotest.(check bool) "trivial binding found" true
    (has_code "lint.trivial-binding" ds);
  Alcotest.(check bool) "single use found" true (has_code "lint.single-use" ds);
  Alcotest.(check bool) "nothing above warning" true (not (Diag.has_errors ds))

let test_lint_netlist () =
  let cell id op fanin = { Netlist.id; op; fanin } in
  let n =
    {
      Netlist.cells =
        [|
          cell 0 (Netlist.Input "x") [];
          cell 1 (Netlist.Input "y") [];
          cell 2 Netlist.Add2 [ 0; 1 ];
          cell 3 Netlist.Add2 [ 0; 1 ];  (* duplicate of 2 *)
          cell 4 (Netlist.Cmult Z.one) [ 2 ];  (* trivial, dead *)
        |];
      outputs = [ ("P1", 3) ];
      width = 8;
    }
  in
  let ds = Redundancy.lint_netlist n in
  List.iter
    (fun c -> Alcotest.(check bool) c true (has_code c ds))
    [ "lint.duplicate-cell"; "lint.dead-cell"; "lint.trivial-cell" ]

(* ---- suite -------------------------------------------------------------- *)

(* the suite over [prog], its netlist and a simplify run on that netlist *)
let suite ~system ~width prog =
  let n = Netlist.of_prog ~width prog in
  Suite.analyze prog n (Simplify.run ~system n)

let test_suite_clean_exit () =
  let p = poly "7*x^2 + 3*x + 2" in
  let prog = Prog.of_exprs [ Expr.of_poly p ] in
  let r = suite ~system:[ ("P1", p) ] ~width:16 prog in
  Alcotest.(check int) "exit 0" 0 (Suite.exit_code r)

let test_suite_error_exit () =
  (* structurally broken program, lint only: exit 3, downstream skipped *)
  let prog =
    {
      Prog.bindings = [ ("a", Expr.var "a") ];
      outputs = [ ("P1", Expr.var "a") ];
    }
  in
  let r = suite ~system:[ ("P1", poly "a") ] ~width:16 prog in
  Alcotest.(check int) "exit 3" 3 (Suite.exit_code r);
  Alcotest.(check bool) "self-reference reported" true
    (has_code "wf.self-reference" r.Suite.wellformed);
  Alcotest.(check (list string)) "widths skipped" [] (codes r.Suite.widths)

(* ---- engine integration ------------------------------------------------- *)

let test_engine_reports_carry_certificates () =
  let polys = Parse.system_exn "5*x^2 + 3*x*y; x*y + 2*y" in
  let config =
    { (Engine.Config.default ~width:12) with Engine.Config.parallelism = 1 }
  in
  let reports, trace = Engine.compare_methods config polys in
  Alcotest.(check int) "four reports" 4 (List.length reports);
  List.iter
    (fun r ->
      Alcotest.(check string)
        (Engine.method_label r.Engine.method_name ^ " verified")
        "verified"
        (Equiv.cert_label r.Engine.cert))
    reports;
  Alcotest.(check int) "four certificates in trace" 4
    (List.length trace.Engine.Trace.certificates)

let test_benchmarks_verify () =
  (* every shipped benchmark's synthesized decomposition must be Verified *)
  List.iter
    (fun (b : B.t) ->
      let config =
        {
          (Engine.Config.default ~width:b.B.width) with
          Engine.Config.parallelism = 1;
        }
      in
      let r, _ = Engine.synthesize config b.B.polys in
      Alcotest.(check string) (b.B.name ^ " verified") "verified"
        (Equiv.cert_label r.Engine.cert))
    (B.all ())

(* ---- abstract interpretation: soundness and precision ------------------ *)

module Domains = Polysynth_analysis.Domains
module Absint = Polysynth_analysis.Absint
module Schedule = Polysynth_hw.Schedule
module Bind = Polysynth_hw.Bind
module Ex = Polysynth_workloads.Examples

let qprop name ?(count = 1000) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* Random well-formed netlists: three input cells followed by operator
   cells whose fanin only points backwards, the last cell the sole
   output.  Inputs are drawn inside [0, 2^width) so the pre-wrap
   Int_interval domain sees in-range inputs too. *)
let build_netlist width specs =
  let base =
    [
      { Netlist.id = 0; op = Netlist.Input "x"; fanin = [] };
      { Netlist.id = 1; op = Netlist.Input "y"; fanin = [] };
      { Netlist.id = 2; op = Netlist.Input "z"; fanin = [] };
    ]
  in
  let ops =
    List.mapi
      (fun i ((k, f1), (f2, c)) ->
        let id = 3 + i in
        let a = f1 mod id and b = f2 mod id in
        let op, fanin =
          match k with
          | 0 -> (Netlist.Constant (Z.of_int c), [])
          | 1 -> (Netlist.Negate, [ a ])
          | 2 -> (Netlist.Add2, [ a; b ])
          | 3 -> (Netlist.Sub2, [ a; b ])
          | 4 -> (Netlist.Mult2, [ a; b ])
          | 5 -> (Netlist.Cmult (Z.of_int c), [ a ])
          | _ -> (Netlist.Shl (abs c mod width), [ a ])
        in
        { Netlist.id; op; fanin })
      specs
  in
  let cells = Array.of_list (base @ ops) in
  { Netlist.cells; outputs = [ ("P1", Array.length cells - 1) ]; width }

let gen_rand_netlist =
  let open QCheck.Gen in
  let spec =
    pair
      (pair (int_range 0 6) (int_range 0 997))
      (pair (int_range 0 991) (int_range (-9) 9))
  in
  oneofl [ 4; 8 ] >>= fun width ->
  list_size (int_range 1 10) spec >>= fun specs ->
  triple (int_range 0 255) (int_range 0 255) (int_range 0 255)
  >>= fun env -> return (build_netlist width specs, env)

let arb_rand_netlist =
  QCheck.make gen_rand_netlist ~print:(fun ((n : Netlist.t), (x, y, z)) ->
      Printf.sprintf "width=%d env=(%d,%d,%d)\n%s" n.Netlist.width x y z
        (String.concat "\n"
           (Array.to_list
              (Array.map
                 (fun (c : Netlist.cell) ->
                   Printf.sprintf "  c%d %s <- [%s]" c.Netlist.id
                     (Netlist.op_to_string c.Netlist.op)
                     (String.concat ","
                        (List.map string_of_int c.Netlist.fanin)))
                 n.Netlist.cells))))

let env_fn ~width (x, y, z) v =
  let w n = Z.erem_pow2 (Z.of_int n) width in
  match v with "x" -> w x | "y" -> w y | _ -> w z

(* per-cell concrete values; [clamp = false] is the exact pre-wrap
   evaluation Int_interval abstracts *)
let eval_cells ~clamp (n : Netlist.t) envf =
  let vals = Array.make (Array.length n.Netlist.cells) Z.zero in
  Array.iter
    (fun (c : Netlist.cell) ->
      let arg k = vals.(List.nth c.Netlist.fanin k) in
      let v =
        match c.Netlist.op with
        | Netlist.Input v -> envf v
        | Netlist.Constant k -> k
        | Netlist.Negate -> Z.neg (arg 0)
        | Netlist.Add2 -> Z.add (arg 0) (arg 1)
        | Netlist.Sub2 -> Z.sub (arg 0) (arg 1)
        | Netlist.Mult2 -> Z.mul (arg 0) (arg 1)
        | Netlist.Cmult k -> Z.mul k (arg 0)
        | Netlist.Shl s -> Z.mul (Z.pow2 s) (arg 0)
      in
      vals.(c.Netlist.id) <-
        (if clamp then Z.erem_pow2 v n.Netlist.width else v))
    n.Netlist.cells;
  vals

(* soundness: whatever a cell concretely evaluates to is inside the fact
   the analysis infers for it *)
let prop_domain_sound name dom ~clamp =
  qprop ("soundness: " ^ name) arb_rand_netlist (fun (n, env) ->
      let module D = (val dom : Domains.DOMAIN) in
      let module A = Absint.Make (D) in
      let width = n.Netlist.width in
      let facts = A.analyze n in
      let vals = eval_cells ~clamp n (env_fn ~width env) in
      let ok = ref true in
      Array.iteri
        (fun i v -> if not (D.contains ~width facts.(i) v) then ok := false)
        vals;
      !ok)

(* each rule that makes a constant of a cell, at width 8: a zero factor
   on either side, a constant multiplier that vanishes mod 2^8, a shift by
   the width and a product of constants (wrapped); one power of two short
   of the width, or a nonzero factor, leaves the cell unknown *)
let test_constant_rules () =
  let cell id op fanin = { Netlist.id; op; fanin } in
  let n =
    {
      Netlist.cells =
        [|
          cell 0 (Netlist.Input "x") [];
          cell 1 (Netlist.Constant Z.zero) [];
          cell 2 Netlist.Mult2 [ 0; 1 ];
          cell 3 Netlist.Mult2 [ 1; 0 ];
          cell 4 (Netlist.Cmult (Z.of_int 256)) [ 0 ];
          cell 5 (Netlist.Shl 8) [ 0 ];
          cell 6 (Netlist.Constant (Z.of_int 20)) [];
          cell 7 (Netlist.Constant (Z.of_int 13)) [];
          cell 8 Netlist.Mult2 [ 6; 7 ];
          cell 9 Netlist.Mult2 [ 0; 6 ];
          cell 10 (Netlist.Cmult (Z.of_int 128)) [ 0 ];
          cell 11 (Netlist.Shl 7) [ 0 ];
        |];
      outputs = [ ("P1", 8) ];
      width = 8;
    }
  in
  let facts = Absint.constants n in
  List.iter
    (fun (i, what, expected) ->
      Alcotest.(check (option string))
        (Printf.sprintf "c%d: %s" i what)
        expected
        (Option.map Z.to_string (Domains.Const.as_const ~width:8 facts.(i))))
    [
      (2, "x * 0", Some "0");
      (3, "0 * x", Some "0");
      (4, "cmult 256", Some "0");
      (5, "shl 8", Some "0");
      (8, "20 * 13 mod 2^8", Some "4");
      (9, "x * 20", None);
      (10, "cmult 128", None);
      (11, "shl 7", None);
    ]

(* ---- certificate-guarded simplification -------------------------------- *)

(* the reference a netlist denotes: its outputs, lifted and expanded *)
let recovered n = Prog.to_polys (Netlist.to_prog n)

(* the guarded pass must preserve the bit-accurate semantics of every
   output, whatever it decides to do *)
let prop_simplify_preserves =
  qprop "simplify preserves netlist semantics" ~count:60 arb_rand_netlist
    (fun (n, env) ->
      let width = n.Netlist.width in
      let o = Simplify.run ~system:(recovered n) n in
      let envf = env_fn ~width env in
      let before = Netlist.eval n envf in
      let after = Netlist.eval o.Simplify.netlist envf in
      List.for_all2
        (fun (nm, v) (nm', v') -> nm = nm' && Z.equal v v')
        before after)

let test_simplify_identity_and_prune () =
  (* x + 0 with two dead inputs: the add is forwarded to x, everything
     unreachable is pruned *)
  let n =
    build_netlist 8 [ ((0, 0), (0, 0)) (* c3 = const 0 *) ] |> fun n ->
    {
      n with
      Netlist.cells =
        Array.append n.Netlist.cells
          [| { Netlist.id = 4; op = Netlist.Add2; fanin = [ 0; 3 ] } |];
      outputs = [ ("P1", 4) ];
    }
  in
  let o = Simplify.run ~system:(recovered n) n in
  Alcotest.(check int) "one rewrite applied" 1
    o.Simplify.stats.Simplify.applied;
  Alcotest.(check bool) "cells eliminated" true
    (Simplify.cells_eliminated o > 0);
  let envf = env_fn ~width:8 (57, 0, 0) in
  Alcotest.(check bool) "still computes x" true
    (List.for_all2
       (fun (nm, v) (nm', v') -> nm = nm' && Z.equal v v')
       (Netlist.eval n envf)
       (Netlist.eval o.Simplify.netlist envf))

let test_simplify_strength_reduction () =
  (* 4*x becomes a shift; the rewrite carries a certificate *)
  let prog =
    {
      Prog.bindings = [];
      outputs =
        [ ("P1", Expr.mul [ Expr.int 4; Expr.var "x"; Expr.var "y" ]) ];
    }
  in
  let n = Netlist.of_prog ~width:8 prog in
  let o = Simplify.run ~system:[ ("P1", poly "4*x*y") ] n in
  Alcotest.(check bool) "applied a rewrite" true
    (o.Simplify.stats.Simplify.applied > 0);
  Alcotest.(check bool) "spent a certificate" true
    (o.Simplify.stats.Simplify.certificates > 0);
  Alcotest.(check bool) "a shift appears" true
    (Array.exists
       (fun (c : Netlist.cell) ->
         match c.Netlist.op with Netlist.Shl _ -> true | _ -> false)
       o.Simplify.netlist.Netlist.cells)

let test_simplify_system_misses_output () =
  (* a system that does not name every output is the caller's bug *)
  let prog =
    Prog.of_exprs [ Expr.var "x"; Expr.add [ Expr.var "x"; Expr.var "y" ] ]
  in
  let n = Netlist.of_prog ~width:8 prog in
  Alcotest.check_raises "P2 unnamed"
    (Invalid_argument "Simplify.run: the system does not name output P2")
    (fun () -> ignore (Simplify.run ~system:[ ("P1", poly "x") ] n))

let test_simplify_unsound_rewrite_refuted () =
  (* lie to the pass: hand-crafted facts claim x + y is the constant 0,
     so it proposes folding the output; the certificate must refute the
     proposal and nothing may be applied *)
  let prog =
    {
      Prog.bindings = [];
      outputs = [ ("P1", Expr.add [ Expr.var "x"; Expr.var "y" ]) ];
    }
  in
  let width = 8 in
  let n = Netlist.of_prog ~width prog in
  let facts = Array.map (fun _ -> Domains.Const.top ~width) n.Netlist.cells in
  let out_id = List.assoc "P1" n.Netlist.outputs in
  facts.(out_id) <- Domains.Const.const ~width Z.zero;
  let o = Simplify.run ~system:[ ("P1", poly "x + y") ] ~facts n in
  Alcotest.(check int) "nothing applied" 0 o.Simplify.stats.Simplify.applied;
  Alcotest.(check bool) "the lie was refuted" true
    (List.exists
       (fun (_, c) -> match c with Equiv.Refuted _ -> true | _ -> false)
       o.Simplify.rejected);
  Alcotest.(check bool) "surfaced as simplify.unsound error" true
    (has_code "simplify.unsound" (Simplify.diags_of_outcome o));
  Alcotest.(check bool) "which is error severity" true
    (Diag.has_errors (Simplify.diags_of_outcome o))

(* ---- scheduler/binder cross-check --------------------------------------- *)

let example_systems =
  [
    ("table_14_1", Ex.table_14_1, 16);
    ("table_14_2", Ex.table_14_2, 16);
    ("section_14_3_1", [ Ex.section_14_3_1_f; Ex.section_14_3_1_g ], 16);
    ("section_14_4_1", [ Ex.section_14_4_1 ], 16);
    ("section_14_4_2", Ex.section_14_4_2, 12);
    ("coeff_factoring", [ Ex.coefficient_factoring_motivation ], 12);
  ]

let test_bind_consistent_on_examples () =
  List.iter
    (fun (name, polys, width) ->
      let config =
        {
          (Engine.Config.default ~width) with
          Engine.Config.parallelism = 1;
          certify = false;
        }
      in
      let r, _ = Engine.synthesize config polys in
      let n = Netlist.of_prog ~width r.Engine.prog in
      let res = { Schedule.multipliers = 1; adders = 1 } in
      match Schedule.list_schedule res n with
      | Error (`No_progress np) ->
        Alcotest.fail (name ^ ": scheduler stuck: " ^ np.Schedule.message)
      | Ok s ->
        Alcotest.(check bool) (name ^ ": schedule valid") true
          (Schedule.is_valid res n s);
        let b = Bind.bind n s in
        Alcotest.(check bool) (name ^ ": binding consistent") true
          (Bind.is_consistent b))
    example_systems

(* Fsmd runs a binding as it is: on the Proposed netlists of four Table
   14.3 systems at four budgets, the simulated FSMD computes the
   netlist's outputs and its Verilog declares the binding's registers *)
let test_fsmd_runs_table_bindings () =
  let module Fsmd = Polysynth_hw.Fsmd in
  List.iter
    (fun name ->
      let bench = Option.get (B.by_name name) in
      let width = bench.B.width in
      let config =
        {
          (Engine.Config.default ~width) with
          Engine.Config.parallelism = 1;
          certify = false;
        }
      in
      let r, _ = Engine.synthesize config bench.B.polys in
      let n = Netlist.of_prog ~width r.Engine.prog in
      let inputs =
        Netlist.draw_inputs (Polysynth_zint.Xorshift.make 7) n ()
      in
      let env v = List.assoc v inputs in
      List.iter
        (fun (m, a) ->
          let res = { Schedule.multipliers = m; adders = a } in
          let b = Bind.bind n (Schedule.list_schedule_exn res n) in
          let label = Printf.sprintf "%s at %d/%d" name m a in
          Alcotest.(check (list (pair string string)))
            (label ^ ": simulate = eval")
            (List.map (fun (o, v) -> (o, Z.to_string v)) (Netlist.eval n env))
            (List.map (fun (o, v) -> (o, Z.to_string v)) (Fsmd.simulate b env));
          let decl =
            Printf.sprintf "regs [0:%d];" (b.Bind.num_registers - 1)
          in
          let v = Fsmd.to_verilog b in
          Alcotest.(check bool) (label ^ ": " ^ decl) true
            (List.exists
               (fun line -> String.ends_with ~suffix:decl line)
               (String.split_on_char '\n' v)))
        [ (1, 1); (1, 2); (2, 2); (4, 4) ])
    [ "Quad"; "Mibench"; "MVCS"; "SG 3x2" ]

(* ---- emitters and analyses pinned on Proposed netlists ------------------ *)

(* One MD5 per artifact over the Proposed netlists of five systems at
   widths 8, 16 and 48 (above 30 bits the input draw needs both limbs):
   the testbench, the self-checking C file, the interval and constant
   analysis, the width lint in both modes and the pipeline cut at period
   30.  Recorded before evaluation, prices and input draws each moved to
   one home. *)
let pinned_artifacts =
  [
    ("testbench", "3421818b796b40a1c16875afe5231847");
    ("c self-check", "8f2b3fa238695df4f83b5e461e4a39b3");
    ("interval and constant analysis", "0fa04af4fb056edb10d3d006bd19d744");
    ("width lint", "24997f828586e1b8267587174cf850e1");
    ("pipeline cut", "1dd1bce6517c5f42a37b1bfc5092acd4");
  ]

let test_pinned_proposed_artifacts () =
  let module Testbench = Polysynth_hw.Testbench in
  let module Cemit = Polysynth_hw.Cemit in
  let module Stage = Polysynth_hw.Stage in
  let systems =
    [ Ex.table_14_1; Ex.table_14_2 ]
    @ List.map
        (fun name -> (Option.get (B.by_name name)).B.polys)
        [ "Quad"; "Mibench"; "MVCS" ]
  in
  let netlists =
    List.concat_map
      (fun polys ->
        List.map
          (fun width ->
            let config =
              {
                (Engine.Config.default ~width) with
                Engine.Config.parallelism = 1;
                certify = false;
              }
            in
            let r, _ = Engine.synthesize config polys in
            Netlist.of_prog ~width r.Engine.prog)
          [ 8; 16; 48 ])
      systems
  in
  let lines f = String.concat "\n" (List.concat_map f netlists) in
  let artifact = function
    | "testbench" -> lines (fun n -> [ Testbench.emit n ])
    | "c self-check" -> lines (fun n -> [ Cemit.emit ~self_check:16 n ])
    | "interval and constant analysis" -> lines Absint.to_strings
    | "width lint" ->
      lines (fun n ->
          List.map Diag.to_string
            (Widths.check_netlist ~mode:Widths.Exact n
            @ Widths.check_netlist ~mode:Widths.Ring n))
    | _ ->
      lines (fun n ->
          let s = Stage.cut ~target_period:30.0 n in
          [
            Printf.sprintf "%d %d %h [%s]" s.Stage.num_stages
              s.Stage.pipeline_registers s.Stage.achieved_period
              (String.concat ";"
                 (Array.to_list (Array.map string_of_int s.Stage.stage_of)));
          ])
  in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) name expected
        (Digest.to_hex (Digest.string (artifact name))))
    pinned_artifacts

let test_suite_binding_pass_and_exit_code () =
  (* the default suite runs the cross-check and reports nothing on a
     healthy program ... *)
  let prog =
    {
      Prog.bindings = [ ("d1", Expr.add [ Expr.var "x"; Expr.var "y" ]) ];
      outputs = [ ("P1", Expr.mul [ Expr.var "d1"; Expr.var "d1" ]) ];
    }
  in
  let r = suite ~system:[ ("P1", poly "(x + y)^2") ] ~width:8 prog in
  Alcotest.(check (list string)) "no binding findings" [] (codes r.Suite.binding);
  (* ... and a bind.* error maps to exit code 4, taking precedence over
     the generic error exit *)
  let broken =
    {
      r with
      Suite.binding =
        [ Diag.error ~code:"bind.inconsistent" Diag.Program "injected" ];
    }
  in
  Alcotest.(check int) "bind error exits 4" 4 (Suite.exit_code broken)

let () =
  Alcotest.run "analysis"
    [
      ( "wellformed",
        [
          Alcotest.test_case "clean program" `Quick test_wf_clean;
          Alcotest.test_case "broken program" `Quick test_wf_bad_prog;
          Alcotest.test_case "broken netlist" `Quick test_wf_bad_netlist;
        ] );
      ( "widths",
        [
          Alcotest.test_case "exact warns, ring informs" `Quick
            test_widths_modes;
          Alcotest.test_case "inputs never flagged" `Quick
            test_widths_no_input_findings;
        ] );
      ( "range",
        [
          Alcotest.test_case "addition" `Quick test_range_simple;
          Alcotest.test_case "multiplication growth" `Quick
            test_range_mult_growth;
          Alcotest.test_case "negative" `Quick test_range_negative;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "verified" `Quick test_certify_verified;
          Alcotest.test_case "injected fault refuted" `Quick
            test_certify_refuted_exact;
          Alcotest.test_case "constructive ring witness" `Quick
            test_certify_constructive_ring_witness;
          Alcotest.test_case "ring vs exact semantics" `Quick
            test_certify_ring_vs_exact;
          Alcotest.test_case "missing output" `Quick test_certify_missing_output;
          Alcotest.test_case "budget exhaustion is Unknown" `Quick
            test_certify_budget_unknown;
          Alcotest.test_case "netlist spot check" `Quick test_spot_check_netlist;
        ] );
      ( "redundancy",
        [
          Alcotest.test_case "program lint" `Quick test_lint_prog;
          Alcotest.test_case "netlist lint" `Quick test_lint_netlist;
        ] );
      ( "suite",
        [
          Alcotest.test_case "clean exit" `Quick test_suite_clean_exit;
          Alcotest.test_case "error exit" `Quick test_suite_error_exit;
        ] );
      ( "absint",
        [
          prop_domain_sound "int-interval (pre-wrap)"
            (module Domains.Int_interval : Domains.DOMAIN)
            ~clamp:false;
          prop_domain_sound "constants"
            (module Domains.Const : Domains.DOMAIN)
            ~clamp:true;
          Alcotest.test_case "constant rules" `Quick test_constant_rules;
        ] );
      ( "simplify",
        [
          prop_simplify_preserves;
          Alcotest.test_case "identity forwarding + prune" `Quick
            test_simplify_identity_and_prune;
          Alcotest.test_case "strength reduction certified" `Quick
            test_simplify_strength_reduction;
          Alcotest.test_case "unsound rewrite refuted" `Quick
            test_simplify_unsound_rewrite_refuted;
          Alcotest.test_case "system must name every output" `Quick
            test_simplify_system_misses_output;
        ] );
      ( "bind",
        [
          Alcotest.test_case "examples schedule and bind" `Slow
            test_bind_consistent_on_examples;
          Alcotest.test_case "suite cross-check and exit code" `Quick
            test_suite_binding_pass_and_exit_code;
          Alcotest.test_case "fsmd runs the Table 14.3 bindings" `Slow
            test_fsmd_runs_table_bindings;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "proposed netlist artifacts" `Quick
            test_pinned_proposed_artifacts;
        ] );
      ( "integration",
        [
          Alcotest.test_case "compare_methods certificates" `Quick
            test_engine_reports_carry_certificates;
          Alcotest.test_case "benchmarks verify" `Slow test_benchmarks_verify;
        ] );
    ]
