module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Q = Polysynth_rat.Qint
module SG = Polysynth_workloads.Savitzky_golay
module B = Polysynth_workloads.Benchmarks
module Ex = Polysynth_workloads.Examples
module Rand = Polysynth_workloads.Random_system

let poly = Show.poly

(* the self-check of a benchmark: its system has the declared number of
   variables and degree, and at least one polynomial *)
let characteristics_ok (b : B.t) =
  let vars =
    List.sort_uniq String.compare (List.concat_map P.vars b.B.polys)
  in
  List.length vars = b.B.num_vars
  && List.for_all (fun q -> P.degree q <= b.B.degree) b.B.polys
  && List.exists (fun q -> P.degree q = b.B.degree) b.B.polys
  && b.B.polys <> []

let prop name ?(count = 50) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* savitzky-golay ------------------------------------------------------------ *)

let test_offsets () =
  Alcotest.(check (list int)) "3" [ -1; 0; 1 ] (SG.offsets 3);
  Alcotest.(check (list int)) "5" [ -2; -1; 0; 1; 2 ] (SG.offsets 5);
  Alcotest.(check (list int)) "4" [ -3; -1; 1; 3 ] (SG.offsets 4);
  Alcotest.check_raises "too small"
    (Invalid_argument "Savitzky_golay.offsets: window too small") (fun () ->
      ignore (SG.offsets 1))

let test_sg_shape () =
  List.iter
    (fun (w, d) ->
      let polys = SG.system ~window:w ~degree:d in
      Alcotest.(check int)
        (Printf.sprintf "%dx%d count" w d)
        (w * w) (List.length polys);
      List.iter
        (fun q ->
          Alcotest.(check bool) "degree bound" true (P.degree q <= d);
          Alcotest.(check bool) "two variables" true
            (List.for_all (fun v -> v = "x" || v = "y") (P.vars q)))
        polys)
    [ (3, 2); (4, 2); (4, 3); (5, 2); (5, 3) ]

let test_sg_partition_of_unity () =
  (* sum_k q_k(0, 0) recovers the (scaled) interpolation property: the sum
     of all kernel polynomials is the constant "scale" (fitting the all-
     ones window reproduces the constant 1 surface) *)
  let polys = SG.system ~window:3 ~degree:2 in
  let total = P.add_list polys in
  Alcotest.(check bool) "sum is a constant" true (P.is_const total);
  Alcotest.(check bool) "positive scale" true
    (Z.sign (Option.get (P.to_const_opt total)) > 0)

let test_sg_reproduces_polynomials () =
  (* least-squares fit of samples of a degree-<=d polynomial is exact:
     sum_k q_k(x,y) * s(u_k, v_k) = scale * s(x, y) for s of fit degree *)
  let w = 3 and d = 2 in
  let polys = SG.system ~window:w ~degree:d in
  let scale = Option.get (P.to_const_opt (P.add_list polys)) in
  let off = SG.offsets w in
  let points =
    List.concat_map (fun u -> List.map (fun v -> (u, v)) off) off
  in
  let s = Polysynth_poly.Parse.poly_exn "3*x^2 - 2*x*y + y - 5" in
  let combination =
    P.add_list
      (List.map2
         (fun q (u, v) ->
           let sval =
             P.eval
               (fun var -> if var = "x" then Z.of_int u else Z.of_int v)
               s
           in
           P.mul_scalar sval q)
         polys points)
  in
  Alcotest.check poly "exact reproduction" (P.mul_scalar scale s) combination

let test_sg_symmetry () =
  (* kernel for window point (u,v) mirrored in u equals the x-mirrored
     kernel: q_{(-u,v)}(x,y) = q_{(u,v)}(-x,y) *)
  let w = 3 and d = 2 in
  let polys = Array.of_list (SG.system ~window:w ~degree:d) in
  (* window order: (u,v) with u, v over [-1;0;1], u-major *)
  let idx u v = ((u + 1) * 3) + (v + 1) in
  let mirror_x q = P.subst "x" (P.neg (P.var "x")) q in
  Alcotest.check poly "mirror" polys.(idx (-1) 0) (mirror_x polys.(idx 1 0))

let test_sg_degree_too_large () =
  Alcotest.check_raises "degree too large"
    (Invalid_argument "Savitzky_golay.system: degree too large for window")
    (fun () -> ignore (SG.system ~window:3 ~degree:5))

(* benchmark suite -------------------------------------------------------------- *)

let test_benchmark_table () =
  let all = B.all () in
  Alcotest.(check int) "eight benchmarks" 8 (List.length all);
  Alcotest.(check (list string)) "names"
    [ "SG 3x2"; "SG 4x2"; "SG 4x3"; "SG 5x2"; "SG 5x3"; "Quad"; "Mibench"; "MVCS" ]
    (List.map (fun b -> b.B.name) all);
  List.iter
    (fun b ->
      Alcotest.(check bool) (b.B.name ^ " characteristics") true
        (characteristics_ok b))
    all

let test_benchmark_paper_characteristics () =
  let check name vars deg width polys =
    match B.by_name name with
    | None -> Alcotest.fail ("missing " ^ name)
    | Some b ->
      Alcotest.(check int) (name ^ " vars") vars b.B.num_vars;
      Alcotest.(check int) (name ^ " degree") deg b.B.degree;
      Alcotest.(check int) (name ^ " width") width b.B.width;
      Alcotest.(check int) (name ^ " polys") polys (List.length b.B.polys)
  in
  (* the Var/Deg/m and #polys columns of Table 14.3 *)
  check "SG 3x2" 2 2 16 9;
  check "SG 4x2" 2 2 16 16;
  check "SG 4x3" 2 3 16 16;
  check "SG 5x2" 2 2 16 25;
  check "SG 5x3" 2 3 16 25;
  check "Quad" 2 2 16 2;
  check "Mibench" 3 2 8 2;
  check "MVCS" 2 3 16 1

let test_by_name_missing () =
  Alcotest.(check bool) "unknown" true (B.by_name "nope" = None)

(* examples ----------------------------------------------------------------------- *)

let test_examples_consistent () =
  Alcotest.(check int) "table 14.1 size" 3 (List.length Ex.table_14_1);
  Alcotest.(check int) "table 14.2 size" 4 (List.length Ex.table_14_2);
  Alcotest.(check int) "section 14.4.2 size" 3 (List.length Ex.section_14_4_2);
  (* P3 of table 14.2 is 5 Y3(x) Y2(y) + 3z^2 *)
  let y3x = Polysynth_poly.Parse.poly_exn "x^3 - 3*x^2 + 2*x" in
  let y2y = Polysynth_poly.Parse.poly_exn "y^2 - y" in
  let expected =
    P.add
      (P.mul_scalar (Z.of_int 5) (P.mul y3x y2y))
      (Polysynth_poly.Parse.poly_exn "3*z^2")
  in
  Alcotest.check poly "P3 falling structure" expected (List.nth Ex.table_14_2 2)

(* extended workloads ------------------------------------------------------------- *)

module Ext = Polysynth_workloads.Extended

let test_fir () =
  let f = Ext.fir_direct ~taps:8 in
  Alcotest.(check int) "degree 8" 8 (P.degree f);
  Alcotest.(check (list string)) "one var" [ "x" ] (P.vars f);
  Alcotest.check_raises "taps < 1"
    (Invalid_argument "Extended.fir_direct: taps < 1") (fun () ->
      ignore (Ext.fir_direct ~taps:0))

let test_chebyshev () =
  let t = poly in
  let pp = Polysynth_poly.Parse.poly_exn in
  Alcotest.check t "T0" P.one (Ext.chebyshev ~degree:0);
  Alcotest.check t "T1" (pp "x") (Ext.chebyshev ~degree:1);
  Alcotest.check t "T2" (pp "2*x^2 - 1") (Ext.chebyshev ~degree:2);
  Alcotest.check t "T3" (pp "4*x^3 - 3*x") (Ext.chebyshev ~degree:3);
  Alcotest.check t "T5" (pp "16*x^5 - 20*x^3 + 5*x") (Ext.chebyshev ~degree:5);
  (* T_n(1) = 1 for all n *)
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "T%d(1)" n)
        1
        (Z.to_int_exn (P.eval (fun _ -> Z.one) (Ext.chebyshev ~degree:n))))
    [ 0; 1; 4; 7; 9 ]

let test_extended_suite () =
  let suite = Ext.extended_suite () in
  Alcotest.(check int) "four systems" 4 (List.length suite);
  List.iter
    (fun b ->
      Alcotest.(check bool) (b.B.name ^ " characteristics") true
        (characteristics_ok b))
    suite

(* data corpus ------------------------------------------------------------------------ *)

let corpus_dir =
  (* the test binary runs from _build/default/test; the corpus is source *)
  let rec find dir depth =
    let candidate = Filename.concat dir "examples/data" in
    if Sys.file_exists candidate && Sys.is_directory candidate then Some candidate
    else if depth = 0 then None
    else find (Filename.concat dir "..") (depth - 1)
  in
  find "." 6

let test_corpus_parses_and_synthesizes () =
  match corpus_dir with
  | None -> Alcotest.fail "examples/data not found"
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".poly")
      |> List.sort String.compare
    in
    Alcotest.(check bool) "several corpus files" true (List.length files >= 4);
    List.iter
      (fun file ->
        let text =
          In_channel.with_open_text (Filename.concat dir file)
            In_channel.input_all
        in
        let system = Polysynth_poly.Parse.system_exn text in
        Alcotest.(check bool) (file ^ " non-empty") true (List.length system > 0);
        let r, _ =
          Polysynth_core.Engine.run
            (Polysynth_core.Engine.Config.default ~width:16)
            Polysynth_core.Engine.Proposed system
        in
        Alcotest.(check bool) (file ^ " synthesizes exactly") true
          (r.Polysynth_core.Engine.cert = Polysynth_analysis.Equiv.Verified))
      files

(* random systems -------------------------------------------------------------------- *)

let test_random_deterministic () =
  let a = Rand.generate ~seed:42 Rand.default_config in
  let b = Rand.generate ~seed:42 Rand.default_config in
  Alcotest.(check bool) "same seed same system" true (List.for_all2 P.equal a b);
  let c = Rand.generate ~seed:43 Rand.default_config in
  Alcotest.(check bool) "different seed differs" false
    (List.for_all2 P.equal a c)

let prop_random_shape =
  prop "random systems respect config" ~count:100
    (QCheck.make QCheck.Gen.(int_range 1 100000) ~print:string_of_int)
    (fun seed ->
      let cfg = { Rand.default_config with Rand.num_polys = 4 } in
      let polys = Rand.generate ~seed cfg in
      List.length polys = 4)

let () =
  Alcotest.run "workloads"
    [
      ( "savitzky_golay",
        [
          Alcotest.test_case "offsets" `Quick test_offsets;
          Alcotest.test_case "shape" `Quick test_sg_shape;
          Alcotest.test_case "partition of unity" `Quick test_sg_partition_of_unity;
          Alcotest.test_case "reproduces polynomials" `Quick
            test_sg_reproduces_polynomials;
          Alcotest.test_case "symmetry" `Quick test_sg_symmetry;
          Alcotest.test_case "degree too large" `Quick test_sg_degree_too_large;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "table" `Quick test_benchmark_table;
          Alcotest.test_case "paper characteristics" `Quick
            test_benchmark_paper_characteristics;
          Alcotest.test_case "by_name missing" `Quick test_by_name_missing;
        ] );
      ( "examples", [ Alcotest.test_case "consistent" `Quick test_examples_consistent ] );
      ( "corpus",
        [
          Alcotest.test_case "parses and synthesizes" `Quick
            test_corpus_parses_and_synthesizes;
        ] );
      ( "extended",
        [
          Alcotest.test_case "fir" `Quick test_fir;
          Alcotest.test_case "chebyshev" `Quick test_chebyshev;
          Alcotest.test_case "suite" `Quick test_extended_suite;
        ] );
      ( "random",
        [
          Alcotest.test_case "deterministic" `Quick test_random_deterministic;
          prop_random_shape;
        ] );
    ]
