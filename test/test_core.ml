module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Parse = Polysynth_poly.Parse
module E = Polysynth_expr.Expr
module Dag = Polysynth_expr.Dag
module Prog = Polysynth_expr.Prog
module Ring = Polysynth_finite_ring.Canonical
module Cost = Polysynth_hw.Cost
module Netlist = Polysynth_hw.Netlist
module Cce = Polysynth_core.Cce
module Blocks = Polysynth_core.Blocks
module Blocktab = Polysynth_core.Blocktab
module Horner = Polysynth_core.Horner
module Algdiv = Polysynth_core.Algdiv
module Canon_rep = Polysynth_core.Canonical_rep
module Represent = Polysynth_core.Represent
module Search = Polysynth_core.Search
module Integrated = Polysynth_core.Integrated
module Baselines = Polysynth_core.Baselines
module Equiv = Polysynth_analysis.Equiv
module Engine = Polysynth_core.Engine
module Ex = Polysynth_workloads.Examples
module Rand = Polysynth_workloads.Random_system
module Bench = Polysynth_workloads.Benchmarks

let p = Parse.poly_exn
let poly = Show.poly
let check_p = Alcotest.check poly

let prop name ?(count = 60) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let ops prog = Dag.total_ops (Prog.counts prog)

(* the flow tests run the engine sequentially *)
let seq ?ctx ~width () =
  { (Engine.Config.default ~width) with Engine.Config.ctx; parallelism = 1 }

let tree_ops polys =
  List.fold_left
    (fun acc q -> acc + Dag.total_ops (Dag.tree_counts (E.of_poly q)))
    0 polys

(* cce ---------------------------------------------------------------------------- *)

(* [sum g_i * b_i + residual]: the inverse of [Cce.extract], the oracle
   that extraction keeps the polynomial *)
let recompose { Cce.groups; residual } =
  List.fold_left (fun acc (g, b) -> P.add acc (P.mul_scalar g b)) residual groups

let test_cce_candidate_gcds () =
  let gcds coeffs = List.map Z.to_int_exn (Cce.candidate_gcds (List.map Z.of_int coeffs)) in
  Alcotest.(check (list int)) "paper example 14.12" [ 15; 8 ] (gcds [ 8; 16; 24; 15; 30 ]);
  Alcotest.(check (list int)) "gcd 6 dropped" [] (gcds [ 24; 30 ]);
  Alcotest.(check (list int)) "ones dropped" [] (gcds [ 3; 7; 11 ]);
  Alcotest.(check (list int)) "signs ignored" [ 5 ] (gcds [ -5; 10 ])

let test_cce_paper_example () =
  (* P1 = 8x + 16y + 24z + 15a + 30b + 11 -> 8(x+2y+3z) + 15(a+2b) + 11 *)
  let r = Cce.extract Ex.section_14_4_1 in
  Alcotest.(check int) "two groups" 2 (List.length r.Cce.groups);
  (match r.Cce.groups with
   | [ (g1, b1); (g2, b2) ] ->
     Alcotest.(check int) "g1 = 15" 15 (Z.to_int_exn g1);
     check_p "b1 = a + 2b" (p "a + 2*b") b1;
     Alcotest.(check int) "g2 = 8" 8 (Z.to_int_exn g2);
     check_p "b2 = x + 2y + 3z" (p "x + 2*y + 3*z") b2
   | _ -> Alcotest.fail "unexpected group shape");
  check_p "residual 11" (p "11") r.Cce.residual;
  check_p "recomposes" Ex.section_14_4_1 (recompose r)

let test_cce_table_14_2 () =
  (* 13x^2+26xy+13y^2+7x-7y+11 -> 13(x^2+2xy+y^2) + 7(x-y) + 11 *)
  let r = Cce.extract (List.hd Ex.table_14_2) in
  Alcotest.(check bool) "has 13-group" true
    (List.exists
       (fun (g, b) -> Z.to_int_exn g = 13 && P.equal b (p "x^2 + 2*x*y + y^2"))
       r.Cce.groups);
  Alcotest.(check bool) "has 7-group (x - y)" true
    (List.exists
       (fun (g, b) -> Z.to_int_exn g = 7 && P.equal b (p "x - y"))
       r.Cce.groups);
  check_p "residual" (p "11") r.Cce.residual

let test_cce_nothing_to_do () =
  let r = Cce.extract (p "3*x + 7*y + 11") in
  Alcotest.(check int) "no groups" 0 (List.length r.Cce.groups);
  check_p "residual is whole" (p "3*x + 7*y + 11") r.Cce.residual

let test_cce_motivating () =
  (* 5x^2 + 10y^3 + 15qw = 5(x^2 + 2y^3 + 3qw) *)
  let r = Cce.extract Ex.coefficient_factoring_motivation in
  (match r.Cce.groups with
   | [ (g, b) ] ->
     Alcotest.(check int) "g = 5" 5 (Z.to_int_exn g);
     check_p "block" (p "x^2 + 2*y^3 + 3*q*w") b
   | _ -> Alcotest.fail "expected one group")

(* blocks --------------------------------------------------------------------------- *)

let test_blocks_table_14_1 () =
  let divisors = Blocks.discover Ex.table_14_1 in
  Alcotest.(check bool) "finds x + 3y" true
    (List.exists (P.equal (p "x + 3*y")) divisors)

let test_blocks_table_14_2 () =
  let divisors = Blocks.discover Ex.table_14_2 in
  Alcotest.(check bool) "finds x + y" true
    (List.exists (P.equal (p "x + y")) divisors);
  Alcotest.(check bool) "finds x - y" true
    (List.exists (P.equal (p "x - y")) divisors)

let test_blocks_all_linear () =
  let divisors = Blocks.discover (Ex.table_14_2 @ Ex.table_14_1) in
  List.iter
    (fun d ->
      Alcotest.(check bool) (P.to_string d ^ " linear") true (Blocks.is_linear d);
      Alcotest.(check bool) "primitive" true
        (Z.is_one (P.content d)))
    divisors

(* a block exposed with a sign or a content is found in its primitive form *)
let test_blocks_normalize () =
  Alcotest.(check (list poly)) "sign" [ p "x + y" ] (Blocks.discover [ p "-x - y" ]);
  Alcotest.(check (list poly)) "content" [ p "x + 2*y" ] (Blocks.discover [ p "3*x + 6*y" ])

(* horner ---------------------------------------------------------------------------- *)

let test_horner_correct () =
  List.iter
    (fun q ->
      check_p ("horner " ^ P.to_string q) q (E.to_poly (Horner.rep q)))
    (Ex.table_14_1 @ Ex.table_14_2 @ [ p "0"; p "7"; p "x" ])

let test_horner_reduces () =
  (* x^2 + 6xy: x(x + 6y) uses 2 mults + 1 cmult vs 3 ops... compare ops *)
  let direct = Dag.total_ops (Dag.tree_counts (E.of_poly (p "x^3 + x^2 + x"))) in
  let horner = Dag.total_ops (Dag.tree_counts (Horner.rep (p "x^3 + x^2 + x"))) in
  Alcotest.(check bool) "horner cheaper" true (horner < direct)

let test_horner_best_variable () =
  Alcotest.(check (option string)) "x most frequent" (Some "x")
    (Horner.best_variable (p "x^2 + x*y + x*z + y"));
  Alcotest.(check (option string)) "no repeated var" None
    (Horner.best_variable (p "x + y + z"))

(* algdiv ----------------------------------------------------------------------------- *)

let decompose_with divisors q =
  let table = Blocktab.create () in
  let session = Algdiv.make_session table ~divisors:(List.map p divisors) in
  let e = Algdiv.decompose session q in
  (e, table)

let expand_with table e =
  (* substitute block definitions (they only mention input vars) *)
  let lookup v = List.assoc_opt v (Blocktab.bindings table) in
  E.to_poly (E.subst lookup e)

let test_algdiv_perfect_square () =
  let q = p "x^2 + 6*x*y + 9*y^2" in
  let e, table = decompose_with [ "x + 3*y" ] q in
  check_p "expands back" q (expand_with table e);
  (* the decomposition must be d^2: one multiplication after the block *)
  Alcotest.(check int) "uses a power of the divisor" 1
    (Dag.total_ops (Dag.tree_counts e))

let test_algdiv_table_14_2_p1 () =
  let q = List.hd Ex.table_14_2 in
  let e, table = decompose_with [ "x + y"; "x - y" ] q in
  check_p "expands back" q (expand_with table e);
  (* 13*d1^2 + 7*d2 + 11: 3 mults + 2 adds = 5 ops *)
  Alcotest.(check bool) "cost <= 5" true (Dag.total_ops (Dag.tree_counts e) <= 5)

let test_algdiv_no_divisors () =
  let q = p "x^2 + y^2 + 3" in
  let e, table = decompose_with [] q in
  check_p "still correct" q (expand_with table e)

let test_algdiv_zero_and_const () =
  let e0, t0 = decompose_with [ "x + y" ] P.zero in
  check_p "zero" P.zero (expand_with t0 e0);
  let e1, t1 = decompose_with [ "x + y" ] (p "42") in
  check_p "const" (p "42") (expand_with t1 e1)

(* the price of a division candidate [d * Q + R] from the memo entries of
   [Q] and [R] is the operator count of the expression it stands for.
   [Q] is drawn as +-1, another constant, a random polynomial or [d]
   times one (so its decomposition mentions the divisor's block), and
   [R] as zero or a random polynomial. *)
let prop_division_price =
  let open QCheck.Gen in
  let gen_small =
    let mono = list_size (int_range 0 2) (pair (oneofl [ "x"; "y"; "z" ]) (int_range 1 2)) in
    list_size (int_range 0 3) (pair (int_range (-5) 5) mono)
    >|= fun terms ->
    P.of_terms (List.map (fun (c, m) -> (Z.of_int c, Polysynth_poly.Monomial.of_list m)) terms)
  in
  let d = p "x + 2*y" in
  let gen_q =
    oneof
      [ return P.one; return (P.neg P.one);
        map (fun c -> P.of_int c) (oneofl [ -7; -2; 3; 12 ]);
        gen_small; map (P.mul d) gen_small;
        map (fun a -> P.add (P.mul d d) a) gen_small ]
  in
  let gen_r = oneof [ return P.zero; gen_small ] in
  prop "division price is the built candidate's count" ~count:300
    (QCheck.make
       ~print:(fun (q, r) -> P.to_string q ^ " || " ^ P.to_string r)
       (pair gen_q gen_r))
    (fun (q, r) ->
      QCheck.assume (not (P.is_zero q));
      let table = Blocktab.create () in
      let session = Algdiv.make_session table ~divisors:[ d ] in
      let dv = Blocktab.divisor_var table d in
      let eq = Algdiv.decompose session q and er = Algdiv.decompose session r in
      let built = E.add [ E.mul [ E.var dv; eq ]; er ] in
      Algdiv.division_price (eq, Dag.tree_ops eq) (er, Dag.tree_ops er)
      = Dag.total_ops (Dag.tree_counts built))

(* generated names skip the ones the table must avoid, and each other *)
let test_blocktab_avoids_names () =
  let table = Blocktab.create ~avoid:[ "d1"; "d3"; "y2_x"; "y2_x_1" ] () in
  Alcotest.(check string) "first divisor" "d2"
    (Blocktab.divisor_var table (p "x + y"));
  Alcotest.(check string) "second divisor" "d4"
    (Blocktab.divisor_var table (p "x - y"));
  Alcotest.(check string) "y2 of x" "y2_x_2" (Blocktab.y2_var table "x");
  Alcotest.(check string) "y2 of y" "y2_y" (Blocktab.y2_var table "y");
  Alcotest.(check string) "registered once" "d2"
    (Blocktab.divisor_var table (p "x + y"))

(* canonical rep -------------------------------------------------------------------------- *)

let test_canonical_rep_shares_y_blocks () =
  let ctx = Ring.make_ctx ~out_width:16 () in
  let table = Blocktab.create () in
  let e3 = Canon_rep.rep ctx table (List.nth Ex.table_14_2 2) in
  let e4 = Canon_rep.rep ctx table (List.nth Ex.table_14_2 3) in
  let prog =
    { Prog.bindings = Blocktab.bindings table;
      outputs = [ ("P3", e3); ("P4", e4) ] }
  in
  let c = Prog.counts prog in
  (* the paper's d3 sharing: P3+P4 together need <= 9 mults *)
  Alcotest.(check bool)
    (Printf.sprintf "shared falling blocks (%d mults)" c.Dag.mults)
    true (c.Dag.mults <= 9)

let test_canonical_rep_function_equal () =
  let ctx = Ring.make_ctx ~out_width:8 () in
  let table = Blocktab.create () in
  let q = p "4*x^2*y^2 - 4*x^2*y - 4*x*y^2 + 4*x*y" in
  let e = Canon_rep.rep ctx table q in
  let lookup v = List.assoc_opt v (Blocktab.bindings table) in
  let expanded = E.to_poly (E.subst lookup e) in
  Alcotest.(check bool) "same bit-vector function" true
    (Ring.equal_functions ctx q expanded)

(* represent / search ------------------------------------------------------------------------ *)

(* Table 14.3 under each system's ring context, built once for the tests
   that read it *)
let table_14_3_stores =
  lazy
    (List.map
       (fun (b : Bench.t) ->
         let ctx = Ring.make_ctx ~out_width:b.Bench.width () in
         (b, Represent.build ~ctx b.Bench.polys))
       (Bench.all ()))

(* the 12 random draws of perfbench's small-search workload *)
let small_search_shape =
  { Rand.num_polys = 4; num_vars = 3; max_terms = 6; max_degree = 3;
    max_coeff = 16; sharing = true }

(* every rep's label and expression, then the block table in
   registration order, digested: a change in what algebraic division
   returns or in the order it names its divisors moves it *)
let printed_store (r : Represent.t) =
  let reps =
    Array.to_list r.Represent.reps
    |> List.mapi (fun i reps ->
           List.map
             (fun rep ->
               Printf.sprintf "%d %s: %s" i rep.Represent.label
                 (E.to_string rep.Represent.expr))
             reps)
    |> List.concat
  in
  let blocks =
    List.map
      (fun (name, def) -> Printf.sprintf "%s = %s" name (E.to_string def))
      (Blocktab.bindings r.Represent.table)
  in
  Digest.to_hex (Digest.string (String.concat "\n" (reps @ ("--" :: blocks))))

let test_represent_has_reps () =
  let r = Represent.build ~ctx:(Ring.make_ctx ~out_width:16 ()) Ex.table_14_2 in
  Array.iter
    (fun reps ->
      Alcotest.(check bool) "non-empty" true (List.length reps >= 2);
      Alcotest.(check bool) "has direct" true
        (List.exists (fun rep -> rep.Represent.label = "direct") reps))
    r.Represent.reps;
  Alcotest.(check bool) "combinations > 1" true (Represent.num_combinations r > 1);
  (* exact label lists, in build order *)
  let labels ?ctx system =
    match (Represent.build ?ctx [ p system ]).Represent.reps with
    | [| reps |] -> List.map (fun rep -> rep.Represent.label) reps
    | _ -> Alcotest.fail "one polynomial, one list"
  in
  let strings = Alcotest.(list string) in
  Alcotest.check strings "x^4 + x^2 + 1" [ "direct"; "horner" ]
    (labels "x^4 + x^2 + 1");
  Alcotest.check strings "x^4 + x^2 + 1 mod 2^16"
    [ "direct"; "horner"; "canonical" ]
    (labels ~ctx:(Ring.make_ctx ~out_width:16 ()) "x^4 + x^2 + 1");
  Alcotest.check strings "x^2*y + 2*x*y + y + x + 1"
    [ "direct"; "horner"; "algdiv"; "ted" ]
    (labels "x^2*y + 2*x*y + y + x + 1");
  let ctx = Ring.make_ctx ~out_width:16 () in
  let proposed = fst (Engine.synthesize (seq ~ctx ~width:16 ()) Ex.table_14_2) in
  Alcotest.check strings "table 14.2 selection"
    [ "cce"; "cce"; "canonical_split"; "canonical" ]
    proposed.Engine.labels;
  (* the size of every system's representation lists, pinned: the
     algebraic-division memo is shared by the whole system, so a change in
     what it is filled with moves these.  SG 5x2 and 5x3 overflow the
     product, so the total list length is pinned too. *)
  let sizes (r : Represent.t) =
    ( Represent.num_combinations r,
      Array.fold_left (fun acc reps -> acc + List.length reps) 0 r.Represent.reps )
  in
  List.iter2
    (fun (name, expected) ((b : Bench.t), r) ->
      Alcotest.(check string) "system" name b.Bench.name;
      Alcotest.(check (pair int int)) (name ^ " combinations, reps") expected
        (sizes r))
    [ ("SG 3x2", (10668672, 55)); ("SG 4x2", (9682651996416, 104));
      ("SG 4x3", (13179165217344, 106)); ("SG 5x2", (max_int, 152));
      ("SG 5x3", (max_int, 165)); ("Quad", (25, 10)); ("Mibench", (36, 12));
      ("MVCS", (6, 6)) ]
    (Lazy.force table_14_3_stores);
  (* the printed representations and block definitions, pinned *)
  List.iter2
    (fun (name, expected) (_, r) ->
      Alcotest.(check string) (name ^ " printed reps and blocks") expected
        (printed_store r))
    [ ("SG 3x2", "a0deb2d6705caefe1fcd3076f5d3a716");
      ("SG 4x2", "e265ef4510b6eae7c792441db328be6d");
      ("SG 4x3", "f16af59ebee595bb126915eb191477f9");
      ("SG 5x2", "c9d4ff521b56562c1df7bb843e5bd53a");
      ("SG 5x3", "8c48896318d9be7bb48a1f6edc4ab116");
      ("Quad", "29bbd304291da350dc5646f56f490dbc");
      ("Mibench", "5f8dcbb46b60a841b26183c32d108404");
      ("MVCS", "eb7e7b1c3c4c7e6ddc04cc05d4fc6f30") ]
    (Lazy.force table_14_3_stores);
  (* draws 3 and 11 each hold an algdiv representation that a private
     session per polynomial would not give: the polynomial's top-level
     call reads the entry an earlier polynomial computed deeper *)
  let ctx = Ring.make_ctx ~out_width:16 () in
  Alcotest.(check (list int)) "small-search draws: combinations"
    [ 864; 1512; 1120; 168; 252; 756; 448; 504; 1680; 90; 192; 360 ]
    (List.init 12 (fun i ->
         Represent.num_combinations
           (Represent.build ~ctx (Rand.generate ~seed:(i + 1) small_search_shape))))

(* 200 fixed draws of small-search's shape, each built exact and under
   the 16-bit ring context: one digest of the printed stores per context,
   so a change to how algebraic division prices, prunes or names is
   checked on many more systems than Table 14.3 *)
let test_represent_random_digests () =
  let draws =
    List.init 200 (fun i -> Rand.generate ~seed:(i + 1) small_search_shape)
  in
  let digest ?ctx () =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map (fun s -> printed_store (Represent.build ?ctx s)) draws)))
  in
  Alcotest.(check string) "exact" "0c8c75b69f316b9642aa287dd0a99cde" (digest ());
  Alcotest.(check string) "mod 2^16" "ed943ef04542f03c75fd725fc1b9e853"
    (digest ~ctx:(Ring.make_ctx ~out_width:16 ()) ())

let test_represent_exact_reps_expand () =
  let r = Represent.build Ex.table_14_1 in
  Array.iteri
    (fun i reps ->
      let original = r.Represent.polys.(i) in
      List.iter
        (fun rep ->
          if rep.Represent.semantics = Represent.Exact then begin
            let lookup v =
              List.assoc_opt v (Blocktab.bindings r.Represent.table)
            in
            check_p
              (Printf.sprintf "rep %s of P%d" rep.Represent.label (i + 1))
              original
              (E.to_poly (E.subst lookup rep.Represent.expr))
          end)
        reps)
    r.Represent.reps

let test_search_table_14_1 () =
  let r = Represent.build Ex.table_14_1 in
  let sel = Search.select (Search.default_options ~width:16) r in
  Alcotest.(check bool) "exhaustive" true sel.Search.exhaustive;
  Alcotest.(check int) "8 mults" 8 sel.Search.counts.Dag.mults;
  Alcotest.(check int) "1 add" 1 sel.Search.counts.Dag.adds;
  Alcotest.(check bool) "verifies" true (Show.verify Ex.table_14_1 sel.Search.prog)

let test_search_beam_on_large () =
  (* force coordinate descent with a tiny exhaustive limit *)
  let r = Represent.build Ex.table_14_2 in
  let options =
    { (Search.default_options ~width:16) with Search.exhaustive_limit = 1 }
  in
  let sel = Search.select options r in
  Alcotest.(check bool) "not exhaustive" false sel.Search.exhaustive;
  Alcotest.(check bool) "verifies" true (Show.verify Ex.table_14_2 sel.Search.prog);
  (* descent still reaches a good decomposition *)
  Alcotest.(check bool) "better than direct" true
    (Dag.total_ops sel.Search.counts < tree_ops Ex.table_14_2)

(* shared-DAG scorer against the per-program oracle ---------------------------- *)

type oracle = {
  o_labels : string list;
  o_cost : Cost.report;
  o_counts : Dag.counts;
  o_evaluated : int;
  o_exhausted : bool;
  key_mismatches : int;  (* visited combinations where the scorers differ *)
}

(* [Search.select] before the shared DAG: the same visiting order, budget
   semantics and first-best tie-break, but every combination is scored by
   lowering its own program with [Search.score].  Each visited
   combination's key is also compared with [Search.scorer]'s, so an
   exhaustive run checks every combination.  [keys] holds the
   [Search.score] of each combination already lowered, for runs whose
   options differ only in budget and search limits.  Coordinate descent
   makes at most 4 passes, as the search does. *)
let oracle_select ~keys (options : Search.options) (r : Represent.t) =
  let reps = Array.map Array.of_list r.Represent.reps in
  let n = Array.length reps in
  let shared = Search.scorer options r in
  let choice idx = List.init n (fun i -> reps.(i).(idx.(i))) in
  let evaluated = ref 0 and exhausted = ref false and mismatches = ref 0 in
  let may_continue () =
    match options.Search.budget with None -> true | Some ok -> ok ()
  in
  let eval idx =
    incr evaluated;
    let key =
      let combination = Array.to_list idx in
      match Hashtbl.find_opt keys combination with
      | Some key -> key
      | None ->
        let key = Search.score options (Search.prog_of_choice r (choice idx)) in
        Hashtbl.add keys combination key;
        key
    in
    if shared idx <> key then incr mismatches;
    (key, Array.copy idx)
  in
  let best = ref (eval (Array.make n 0)) in
  let better (a, _) (b, _) = a < b in
  if n > 0 then begin
    let idx = Array.make n 0 in
    if Represent.num_combinations r <= options.Search.exhaustive_limit then begin
      let rec advance pos =
        pos < n
        &&
        if idx.(pos) + 1 < Array.length reps.(pos) then begin
          idx.(pos) <- idx.(pos) + 1;
          true
        end
        else begin
          idx.(pos) <- 0;
          advance (pos + 1)
        end
      in
      let keep_going = ref (advance 0) in
      while !keep_going do
        if not (may_continue ()) then begin
          exhausted := true;
          keep_going := false
        end
        else begin
          let trial = eval idx in
          if better trial !best then best := trial;
          keep_going := advance 0
        end
      done
    end
    else begin
      let improved = ref true and sweep = ref 0 in
      try
        while !improved && !sweep < 4 do
          improved := false;
          incr sweep;
          for i = 0 to n - 1 do
            let best_k = ref idx.(i) in
            for k = 0 to Array.length reps.(i) - 1 do
              if k <> !best_k then begin
                if not (may_continue ()) then raise Exit;
                idx.(i) <- k;
                let trial = eval idx in
                if better trial !best then begin
                  best := trial;
                  best_k := k;
                  improved := true
                end
              end
            done;
            idx.(i) <- !best_k
          done
        done
      with Exit -> exhausted := true
    end
  end;
  let choice = choice (snd !best) in
  let prog = Search.prog_of_choice r choice in
  {
    o_labels = List.map (fun (rep : Represent.rep) -> rep.Represent.label) choice;
    o_cost =
      Cost.of_prog ~model:options.Search.model ~width:options.Search.width prog;
    o_counts = Prog.counts prog;
    o_evaluated = !evaluated;
    o_exhausted = !exhausted;
    key_mismatches = !mismatches;
  }

(* a candidate budget in the engine's style: [n] more combinations *)
let candidate_budget n =
  let used = ref 0 in
  Some
    (fun () ->
      incr used;
      !used <= n)

(* Every way [Search.select] differs from the oracle on [r], under each
   objective, unbudgeted, with a candidate budget and, when the
   default search is exhaustive, forced into coordinate descent. *)
let oracle_mismatches ~width (r : Represent.t) =
  let exhaustive =
    Represent.num_combinations r
    <= (Search.default_options ~width).Search.exhaustive_limit
  in
  let runs =
    [
      ("default", fun o -> o);
      ("budget 5", fun o -> { o with Search.budget = candidate_budget 5 });
    ]
    @
    if exhaustive then
      [ ("descent", fun o -> { o with Search.exhaustive_limit = 1 }) ]
    else []
  in
  List.concat_map
    (fun objective ->
      let keys = Hashtbl.create 64 in
      List.concat_map
        (fun (run, adjust) ->
          let options () =
            adjust { (Search.default_options ~width) with Search.objective }
          in
          let o = oracle_select ~keys (options ()) r in
          let s = Search.select (options ()) r in
          List.filter_map
            (fun (what, ok) ->
              if ok then None
              else
                Some
                  (Printf.sprintf "%s/%s: %s"
                     (match objective with
                      | Search.Min_area -> "area"
                      | Search.Min_delay -> "delay"
                      | Search.Min_ops -> "ops"
                      | Search.Min_power -> "power")
                     run what))
            [
              ("keys", o.key_mismatches = 0);
              ("key", s.Search.key = Search.score (options ()) s.Search.prog);
              ("labels", o.o_labels = s.Search.labels);
              ("cost", o.o_cost = s.Search.cost);
              ("counts", o.o_counts = s.Search.counts);
              ("combinations_evaluated",
               o.o_evaluated = s.Search.combinations_evaluated);
              ("budget_exhausted", o.o_exhausted = s.Search.budget_exhausted);
            ])
        runs)
    [ Search.Min_area; Search.Min_delay; Search.Min_power; Search.Min_ops ]

let check_oracle name ~width r =
  Alcotest.(check (list string)) (name ^ " agrees with the oracle") []
    (oracle_mismatches ~width r)

let test_scorer_paper_tables () =
  let ctx = Ring.make_ctx ~out_width:16 () in
  List.iter
    (fun (name, system) ->
      check_oracle name ~width:16 (Represent.build ~ctx system))
    [ ("table 14.1", Ex.table_14_1); ("table 14.2", Ex.table_14_2) ]

(* 2^15 * (y^2 + y) vanishes mod 2^16 (y^2 + y is even), so a ring
   representation of the first polynomial drops [y]: some combinations
   read the inputs {x}, others {x, y}, and the power scorer must draw
   each one's words over its own input list *)
let test_scorer_input_lists () =
  let ctx = Ring.make_ctx ~out_width:16 () in
  let r = Represent.build ~ctx [ p "x + 32768*y^2 + 32768*y"; p "x^2 + 3*x" ] in
  let choices =
    Array.fold_right
      (fun reps tails ->
        List.concat_map (fun rep -> List.map (fun t -> rep :: t) tails) reps)
      r.Represent.reps [ [] ]
  in
  Alcotest.(check (list (list string)))
    "input lists" [ [ "x" ]; [ "x"; "y" ] ]
    (List.sort_uniq compare
       (List.map
          (fun choice ->
            Netlist.inputs
              (Netlist.of_prog ~width:16 (Search.prog_of_choice r choice)))
          choices));
  check_oracle "x + 32768*y^2 + 32768*y; x^2 + 3*x" ~width:16 r

let test_scorer_table_14_3 () =
  List.iter
    (fun ((b : Bench.t), r) -> check_oracle b.Bench.name ~width:b.Bench.width r)
    (Lazy.force table_14_3_stores)

(* integrated ----------------------------------------------------------------------------------- *)

let test_integrated_variants_exact () =
  List.iter
    (fun (label, build) ->
      Alcotest.(check bool) (label ^ " verifies") true
        (Show.verify Ex.table_14_2 (build Ex.table_14_2)))
    Integrated.variants

let test_integrated_never_terrible () =
  List.iter
    (fun (label, build) ->
      Alcotest.(check bool) (label ^ " no worse than direct") true
        (ops (build Ex.table_14_2) <= tree_ops Ex.table_14_2))
    Integrated.variants

(* pipeline --------------------------------------------------------------------------------------- *)

let test_pipeline_table_14_1 () =
  let reports = fst (Engine.compare_methods (seq ~width:16 ()) Ex.table_14_1) in
  let by name =
    List.find (fun r -> Engine.method_label r.Engine.method_name = name) reports
  in
  let proposed = by "proposed" and baseline = by "factor+cse" in
  Alcotest.(check int) "proposed 8 mults" 8 proposed.Engine.counts.Dag.mults;
  Alcotest.(check int) "proposed 1 add" 1 proposed.Engine.counts.Dag.adds;
  Alcotest.(check int) "baseline 12 mults" 12 baseline.Engine.counts.Dag.mults;
  Alcotest.(check int) "baseline 4 adds" 4 baseline.Engine.counts.Dag.adds;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Engine.method_label r.Engine.method_name ^ " verifies")
        true
        (r.Engine.cert = Equiv.Verified))
    reports

let test_pipeline_table_14_2 () =
  let ctx = Ring.make_ctx ~out_width:16 () in
  let proposed = fst (Engine.synthesize (seq ~ctx ~width:16 ()) Ex.table_14_2) in
  Alcotest.(check int) "14 mults" 14 proposed.Engine.counts.Dag.mults;
  Alcotest.(check int) "12 adds" 12 proposed.Engine.counts.Dag.adds;
  Alcotest.(check bool) "verifies mod ring" true
    (proposed.Engine.cert = Equiv.Verified)

let test_pipeline_direct_tree_counts () =
  (* initial cost of the Table 14.2 system: 51 MULT / 21 ADD *)
  let direct = Baselines.direct Ex.table_14_2 in
  let c = Prog.tree_counts direct in
  Alcotest.(check int) "51 mults" 51 c.Dag.mults;
  Alcotest.(check int) "21 adds" 21 c.Dag.adds;
  let c1 = Prog.tree_counts (Baselines.direct Ex.table_14_1) in
  Alcotest.(check int) "17 mults" 17 c1.Dag.mults;
  Alcotest.(check int) "4 adds" 4 c1.Dag.adds

let test_pipeline_proposed_beats_baseline_on_paper_tables () =
  List.iter
    (fun system ->
      let base = fst (Engine.run (seq ~width:16 ()) Engine.Factor_cse system) in
      let prop = fst (Engine.run (seq ~width:16 ()) Engine.Proposed system) in
      Alcotest.(check bool) "area no worse" true
        (prop.Engine.cost.Cost.area <= base.Engine.cost.Cost.area))
    [ Ex.table_14_1; Ex.table_14_2 ]

(* coefficient folding ------------------------------------------------------------------------------- *)

let test_coeff_fold_helps () =
  (* 65535*x = -x mod 2^16: one negation instead of a fat CSD multiplier *)
  let system = [ p "65535*x + 255*y" ] in
  let ctx = Ring.make_ctx ~out_width:16 () in
  let plain = fst (Engine.run (seq ~width:16 ()) Engine.Proposed system) in
  let ring = fst (Engine.run (seq ~ctx ~width:16 ()) Engine.Proposed system) in
  Alcotest.(check bool)
    (Printf.sprintf "folded area %d < plain %d" ring.Engine.cost.Cost.area
       plain.Engine.cost.Cost.area)
    true
    (ring.Engine.cost.Cost.area < plain.Engine.cost.Cost.area);
  Alcotest.(check bool) "function-equal" true
    (ring.Engine.cert = Equiv.Verified)

let prop_coeff_fold_sound =
  prop "ring-aware synthesis is function-equal" ~count:30
    (QCheck.make QCheck.Gen.(int_range 1 100000) ~print:string_of_int)
    (fun seed ->
      let system =
        Rand.generate ~seed
          { Rand.default_config with
            Rand.num_polys = 2; max_terms = 3; max_coeff = 300 }
      in
      let ctx = Ring.make_ctx ~out_width:8 () in
      let r = fst (Engine.run (seq ~ctx ~width:8 ()) Engine.Proposed system) in
      r.Engine.cert = Equiv.Verified)

(* objectives -------------------------------------------------------------------------------------- *)

let test_objectives () =
  let system = (Option.get (Polysynth_workloads.Benchmarks.by_name "Mibench")).Polysynth_workloads.Benchmarks.polys in
  let run objective =
    fst (Engine.synthesize { (seq ~width:8 ()) with Engine.Config.objective } system)
  in
  let area_r = run Search.Min_area in
  let delay_r = run Search.Min_delay in
  let ops_r = run Search.Min_ops in
  (* each objective is at least as good as the others on its own metric *)
  Alcotest.(check bool) "min-area has min area" true
    (area_r.Engine.cost.Cost.area <= delay_r.Engine.cost.Cost.area
    && area_r.Engine.cost.Cost.area <= ops_r.Engine.cost.Cost.area);
  Alcotest.(check bool) "min-delay has min delay" true
    (delay_r.Engine.cost.Cost.delay <= area_r.Engine.cost.Cost.delay +. 1e-9);
  Alcotest.(check bool) "min-ops has min ops" true
    (Dag.total_ops ops_r.Engine.counts <= Dag.total_ops area_r.Engine.counts);
  (* all of them remain exact *)
  List.iter
    (fun r -> Alcotest.(check bool) "exact" true (r.Engine.cert = Equiv.Verified))
    [ area_r; delay_r; ops_r ]

let test_objective_power_runs () =
  let system = Ex.table_14_1 in
  let config =
    { (seq ~width:16 ()) with Engine.Config.objective = Search.Min_power }
  in
  let r = fst (Engine.synthesize config system) in
  Alcotest.(check bool) "exact under power objective" true
    (r.Engine.cert = Equiv.Verified)

(* pretty-printed programs round-trip through the program parser ------------------ *)

let test_prog_pp_parse_roundtrip () =
  let ctx = Ring.make_ctx ~out_width:16 () in
  List.iter
    (fun (system, use_ctx) ->
      let r =
        if use_ctx then fst (Engine.synthesize (seq ~ctx ~width:16 ()) system)
        else fst (Engine.synthesize (seq ~width:16 ()) system)
      in
      let text = Format.asprintf "%a" Prog.pp r.Engine.prog in
      let reparsed = Polysynth_expr.Prog_parse.program_exn text in
      let before = Prog.to_polys r.Engine.prog in
      let after = Prog.to_polys reparsed in
      List.iter
        (fun (name, q) ->
          match List.assoc_opt name after with
          | Some q' -> check_p ("roundtrip " ^ name) q q'
          | None -> Alcotest.fail ("missing output " ^ name))
        before)
    [ (Ex.table_14_1, false); (Ex.table_14_2, true) ]

(* degenerate inputs ---------------------------------------------------------------------------------- *)

let test_degenerate_systems () =
  let check name system =
    let r = fst (Engine.run (seq ~width:16 ()) Engine.Proposed system) in
    Alcotest.(check bool) (name ^ " exact") true (r.Engine.cert = Equiv.Verified)
  in
  check "empty" [];
  check "constant" [ p "7" ];
  check "zero" [ P.zero ];
  check "single variable" [ p "x" ];
  check "negative constant" [ P.of_int (-3) ];
  check "mixed degenerate" [ P.zero; p "1"; p "x" ];
  (* 1-bit ring: x^2 + x is the zero function *)
  let ctx1 = Ring.make_ctx ~out_width:1 () in
  let r = fst (Engine.run (seq ~ctx:ctx1 ~width:1 ()) Engine.Proposed [ p "x^2 + x" ]) in
  Alcotest.(check bool) "1-bit ring" true
    (r.Engine.cert = Equiv.Verified)

(* properties -------------------------------------------------------------------------------------- *)

let arb_seed = QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int

let random_system seed =
  Rand.generate ~seed
    { Rand.default_config with Rand.num_polys = 2; max_terms = 4 }

let prop_cce_recompose =
  prop "CCE recomposes" ~count:200 arb_seed (fun seed ->
      List.for_all
        (fun q -> P.equal q (recompose (Cce.extract q)))
        (random_system seed))

let prop_proposed_verifies =
  prop "proposed synthesis is exact" ~count:40 arb_seed (fun seed ->
      let system = random_system seed in
      let r = fst (Engine.run (seq ~width:16 ()) Engine.Proposed system) in
      r.Engine.cert = Equiv.Verified)

let prop_all_methods_verify =
  prop "all methods are exact" ~count:30 arb_seed (fun seed ->
      let system = random_system seed in
      List.for_all
        (fun r -> r.Engine.cert = Equiv.Verified)
        (fst (Engine.compare_methods (seq ~width:16 ()) system)))

let prop_proposed_never_worse_than_direct =
  (* the search minimizes estimated area and always evaluates the all-direct
     combination, so the proposed result can never cost more area than the
     direct program (operator count MAY grow: cheap constant multipliers can
     be traded for an extra operation) *)
  prop "proposed area <= direct area" ~count:40 arb_seed (fun seed ->
      let system = random_system seed in
      let r = fst (Engine.run (seq ~width:16 ()) Engine.Proposed system) in
      let direct =
        Cost.of_prog ~width:16 (Baselines.direct system)
      in
      r.Engine.cost.Cost.area <= direct.Cost.area)

let prop_proposed_mod_ring_verifies =
  prop "proposed with ring ctx is function-equal" ~count:30 arb_seed
    (fun seed ->
      let system = random_system seed in
      let ctx = Ring.make_ctx ~out_width:8 () in
      let r = fst (Engine.run (seq ~ctx ~width:8 ()) Engine.Proposed system) in
      r.Engine.cert = Equiv.Verified)

let prop_scorer_matches_oracle =
  prop "select = per-program oracle" ~count:30 arb_seed (fun seed ->
      let system = Rand.generate ~seed Rand.default_config in
      (* odd seeds also exercise the ring-context representations *)
      let ctx =
        if seed land 1 = 1 then Some (Ring.make_ctx ~out_width:8 ()) else None
      in
      let width = if Option.is_some ctx then 8 else 16 in
      match oracle_mismatches ~width (Represent.build ?ctx system) with
      | [] -> true
      | diffs -> QCheck.Test.fail_reportf "%s" (String.concat "; " diffs))

let () =
  Alcotest.run "core"
    [
      ( "cce",
        [
          Alcotest.test_case "candidate gcds" `Quick test_cce_candidate_gcds;
          Alcotest.test_case "paper 14.4.1 example" `Quick test_cce_paper_example;
          Alcotest.test_case "table 14.2 P1" `Quick test_cce_table_14_2;
          Alcotest.test_case "nothing to extract" `Quick test_cce_nothing_to_do;
          Alcotest.test_case "coefficient motivation" `Quick test_cce_motivating;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "table 14.1 divisor" `Quick test_blocks_table_14_1;
          Alcotest.test_case "table 14.2 divisors" `Quick test_blocks_table_14_2;
          Alcotest.test_case "all linear and primitive" `Quick test_blocks_all_linear;
          Alcotest.test_case "normalize" `Quick test_blocks_normalize;
        ] );
      ( "horner",
        [
          Alcotest.test_case "correct" `Quick test_horner_correct;
          Alcotest.test_case "reduces univariate" `Quick test_horner_reduces;
          Alcotest.test_case "best variable" `Quick test_horner_best_variable;
        ] );
      ( "algdiv",
        [
          Alcotest.test_case "perfect square" `Quick test_algdiv_perfect_square;
          Alcotest.test_case "table 14.2 P1" `Quick test_algdiv_table_14_2_p1;
          Alcotest.test_case "no divisors" `Quick test_algdiv_no_divisors;
          Alcotest.test_case "zero and const" `Quick test_algdiv_zero_and_const;
          prop_division_price;
          Alcotest.test_case "block names avoid inputs" `Quick
            test_blocktab_avoids_names;
        ] );
      ( "canonical_rep",
        [
          Alcotest.test_case "shares Y blocks" `Quick
            test_canonical_rep_shares_y_blocks;
          Alcotest.test_case "function equal" `Quick
            test_canonical_rep_function_equal;
        ] );
      ( "represent/search",
        [
          Alcotest.test_case "rep lists" `Quick test_represent_has_reps;
          Alcotest.test_case "200 random draws pinned" `Quick
            test_represent_random_digests;
          Alcotest.test_case "exact reps expand" `Quick
            test_represent_exact_reps_expand;
          Alcotest.test_case "search table 14.1" `Quick test_search_table_14_1;
          Alcotest.test_case "coordinate descent" `Quick test_search_beam_on_large;
          Alcotest.test_case "scorer oracle: tables 14.1, 14.2" `Quick
            test_scorer_paper_tables;
          Alcotest.test_case "scorer oracle: input lists" `Quick
            test_scorer_input_lists;
          Alcotest.test_case "scorer oracle: table 14.3" `Slow
            test_scorer_table_14_3;
          prop_scorer_matches_oracle;
        ] );
      ( "integrated",
        [
          Alcotest.test_case "variants exact" `Quick test_integrated_variants_exact;
          Alcotest.test_case "never terrible" `Quick test_integrated_never_terrible;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "table 14.1 counts" `Quick test_pipeline_table_14_1;
          Alcotest.test_case "table 14.2 counts" `Quick test_pipeline_table_14_2;
          Alcotest.test_case "direct tree counts" `Quick
            test_pipeline_direct_tree_counts;
          Alcotest.test_case "beats baseline on paper tables" `Quick
            test_pipeline_proposed_beats_baseline_on_paper_tables;
        ] );
      ( "degenerate",
        [ Alcotest.test_case "degenerate systems" `Quick test_degenerate_systems ] );
      ( "roundtrip",
        [
          Alcotest.test_case "Prog.pp parses back" `Quick
            test_prog_pp_parse_roundtrip;
        ] );
      ( "coeff_fold",
        [
          Alcotest.test_case "folding helps" `Quick test_coeff_fold_helps;
          prop_coeff_fold_sound;
        ] );
      ( "objectives",
        [
          Alcotest.test_case "objective dominance" `Quick test_objectives;
          Alcotest.test_case "power objective" `Quick test_objective_power_runs;
        ] );
      ( "properties",
        [
          prop_cce_recompose;
          prop_proposed_verifies;
          prop_all_methods_verify;
          prop_proposed_never_worse_than_direct;
          prop_proposed_mod_ring_verifies;
        ] );
    ]
