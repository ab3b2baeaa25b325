(* The unified engine: parallel/sequential equivalence, memoization, and
   budget degradation. *)

module Z = Polysynth_zint.Zint
module Dag = Polysynth_expr.Dag
module Prog = Polysynth_expr.Prog
module Cost = Polysynth_hw.Cost
module Engine = Polysynth_core.Engine
module Trace = Polysynth_core.Engine.Trace
module B = Polysynth_workloads.Benchmarks
module Ex = Polysynth_workloads.Examples

(* the representation store off by default so every run really builds *)
let config ?(parallelism = 1) ?(cache = false) ~width () =
  { (Engine.Config.default ~width) with Engine.Config.parallelism; cache }

(* ---- parallel map ---------------------------------------------------- *)

let test_parallel_map_order () =
  let xs = List.init 23 Fun.id in
  Alcotest.(check (list int))
    "order preserved" (List.map (fun x -> (3 * x) + 1) xs)
    (Engine.parallel_map ~domains:4 (fun x -> (3 * x) + 1) xs);
  Alcotest.(check (list int))
    "sequential fallback" [ 9 ]
    (Engine.parallel_map ~domains:1 (fun x -> x * x) [ 3 ]);
  Alcotest.(check (list int)) "empty" [] (Engine.parallel_map ~domains:4 Fun.id []);
  Alcotest.(check (list int))
    "more domains than items" [ 2; 4 ]
    (Engine.parallel_map ~domains:8 (fun x -> 2 * x) [ 1; 2 ])

let test_parallel_map_exception () =
  Alcotest.check_raises "worker exception propagates" (Failure "boom")
    (fun () ->
      ignore
        (Engine.parallel_map ~domains:3
           (fun x -> if x = 5 then failwith "boom" else x)
           (List.init 10 Fun.id)))

(* ---- determinism: parallel = sequential ------------------------------ *)

(* Table 14.3 as the engine synthesizes it: (MULT, ADD, area) per system,
   pinned so that a change to the arithmetic or search underneath cannot
   silently move the paper's results *)
let table_14_3 =
  [ ("SG 3x2", (14, 19, 8000)); ("SG 4x2", (12, 38, 10112));
    ("SG 4x3", (22, 54, 25536)); ("SG 5x2", (15, 60, 12864));
    ("SG 5x3", (40, 89, 30480)); ("Quad", (6, 7, 2656));
    ("Mibench", (9, 9, 2152)); ("MVCS", (4, 2, 3296)) ]

let test_parallel_matches_sequential () =
  Alcotest.(check (list string))
    "pinned systems" (List.map fst table_14_3)
    (List.map (fun (b : B.t) -> b.B.name) (B.all ()));
  List.iter
    (fun (b : B.t) ->
      let run parallelism =
        fst
          (Engine.synthesize
             (config ~parallelism ~width:b.B.width ())
             b.B.polys)
      in
      let seq = run 1 in
      let par = run 2 in
      Alcotest.(check (triple int int int))
        (b.B.name ^ ": pinned MULT, ADD, area")
        (List.assoc b.B.name table_14_3)
        (seq.Engine.counts.Dag.mults, seq.Engine.counts.Dag.adds,
         seq.Engine.cost.Cost.area);
      Alcotest.(check int)
        (b.B.name ^ ": MULT count") seq.Engine.counts.Dag.mults
        par.Engine.counts.Dag.mults;
      Alcotest.(check int)
        (b.B.name ^ ": ADD count") seq.Engine.counts.Dag.adds
        par.Engine.counts.Dag.adds;
      Alcotest.(check int)
        (b.B.name ^ ": area") seq.Engine.cost.Cost.area
        par.Engine.cost.Cost.area;
      Alcotest.(check (float 1e-9))
        (b.B.name ^ ": delay") seq.Engine.cost.Cost.delay
        par.Engine.cost.Cost.delay;
      Alcotest.(check (list string))
        (b.B.name ^ ": labels") seq.Engine.labels par.Engine.labels;
      let printed r = Format.asprintf "%a" Prog.pp r.Engine.prog in
      Alcotest.(check string)
        (b.B.name ^ ": program") (printed seq) (printed par);
      Alcotest.(check bool)
        (b.B.name ^ ": parallel result is exact") true
        (Engine.verify b.B.polys par.Engine.prog))
    (B.all ())

(* ---- memoization ----------------------------------------------------- *)

let test_memo_hits_on_compare () =
  Engine.clear_cache ();
  let cfg =
    { (Engine.Config.default ~width:16) with Engine.Config.parallelism = 1 }
  in
  let mvcs = (Option.get (B.by_name "MVCS")).B.polys in
  let reports1, trace1 = Engine.compare_methods cfg mvcs in
  let reports2, trace2 = Engine.compare_methods cfg mvcs in
  let representation (t : Trace.t) =
    List.find_map
      (fun (name, h, m) -> if name = "representation" then Some (h, m) else None)
      t.Trace.cache_tables
  in
  (* after clear_cache the first compare builds the store and the variants
     (two misses); the baselines never consult the store *)
  Alcotest.(check (option (pair int int)))
    "first compare builds the store and the variants" (Some (0, 2))
    (representation trace1);
  (* the second compare re-builds nothing at all: both are served from the
     representation store, and the kernelling memo keeps the first
     compare's entries *)
  Alcotest.(check (list string)) "the trace's tables"
    [ "representation"; "kernel" ]
    (List.map (fun (name, _, _) -> name) trace2.Trace.cache_tables);
  Alcotest.(check (option (pair int int)))
    "second compare serves both" (Some (2, 0)) (representation trace2);
  Alcotest.(check int) "no misses on the second compare" 0
    trace2.Trace.cache_misses;
  List.iter2
    (fun (a : Engine.report) (b : Engine.report) ->
      Alcotest.(check int) "same area across cached runs" a.Engine.cost.Cost.area
        b.Engine.cost.Cost.area;
      Alcotest.(check int) "same MULT across cached runs"
        a.Engine.counts.Dag.mults b.Engine.counts.Dag.mults)
    reports1 reports2;
  Engine.clear_cache ()

(* what a report says, in comparable form *)
let summary (r : Engine.report) =
  ( Engine.method_label r.Engine.method_name,
    (r.Engine.counts.Dag.mults, r.Engine.counts.Dag.adds),
    (r.Engine.cost.Cost.area, r.Engine.cost.Cost.delay),
    (r.Engine.labels, Polysynth_analysis.Equiv.cert_label r.Engine.cert,
     Format.asprintf "%a" Polysynth_expr.Prog.pp r.Engine.prog) )

let compare_summaries cfg polys =
  List.map summary (fst (Engine.compare_methods cfg polys))

(* [cache] governs only the representation/variant store: with it off the
   store is neither read nor filled, and the reports are those of a
   cached run *)
let test_cache_off_never_counts () =
  Engine.clear_cache ();
  let off, trace = Engine.compare_methods (config ~width:16 ()) Ex.table_14_1 in
  Alcotest.(check (option (pair int int)))
    "store untouched with caching off" (Some (0, 0))
    (List.find_map
       (fun (name, h, m) -> if name = "representation" then Some (h, m) else None)
       trace.Trace.cache_tables);
  Alcotest.(check bool) "reports equal a cached run" true
    (List.map summary off
    = compare_summaries (config ~cache:true ~width:16 ()) Ex.table_14_1);
  Engine.clear_cache ()

(* two runs with different [cache] settings in two domains at once give
   the reports each gives alone: no run flips a setting under the other *)
let test_cache_settings_concurrent () =
  let mvcs = (Option.get (B.by_name "MVCS")).B.polys in
  let jobs =
    List.concat_map
      (fun polys ->
        [ (config ~cache:true ~width:16 (), polys); (config ~width:16 (), polys) ])
      [ Ex.table_14_1; mvcs ]
  in
  Engine.clear_cache ();
  let sequential = List.map (fun (c, polys) -> compare_summaries c polys) jobs in
  Engine.clear_cache ();
  let concurrent =
    Engine.parallel_map ~domains:2
      (fun (c, polys) -> compare_summaries c polys)
      jobs
  in
  Alcotest.(check bool) "concurrent reports equal sequential ones" true
    (sequential = concurrent);
  Engine.clear_cache ()

(* ---- budgets --------------------------------------------------------- *)

let test_budget_exhaustion_graceful () =
  let polys = Ex.table_14_1 in
  let full, full_trace = Engine.synthesize (config ~width:16 ()) polys in
  Alcotest.(check bool) "unbudgeted run has no exhaustion" false
    full_trace.Trace.budget_exhausted;
  let tight =
    { (config ~width:16 ()) with Engine.Config.candidate_budget = Some 0 }
  in
  let r, trace = Engine.synthesize tight polys in
  Alcotest.(check bool) "zero candidate budget reported" true
    trace.Trace.budget_exhausted;
  Alcotest.(check bool) "budgeted result is still exact" true
    (Engine.verify polys r.Engine.prog);
  Alcotest.(check bool) "budgeted result can only be worse or equal" true
    (full.Engine.cost.Cost.area <= r.Engine.cost.Cost.area);
  let timed =
    { (config ~width:16 ()) with Engine.Config.time_budget = Some 0.0 }
  in
  let r', trace' = Engine.synthesize timed polys in
  Alcotest.(check bool) "zero time budget reported" true
    trace'.Trace.budget_exhausted;
  Alcotest.(check bool) "time-budgeted result is still exact" true
    (Engine.verify polys r'.Engine.prog)

(* ---- trace ------------------------------------------------------------ *)

let test_trace_shape () =
  let _, trace = Engine.synthesize (config ~width:16 ()) Ex.table_14_1 in
  let names = List.map (fun (s : Trace.stage) -> s.Trace.name) trace.Trace.stages in
  Alcotest.(check (list string))
    "stages in flow order"
    [
      "proposed/represent";
      "proposed/search";
      "proposed/integrated";
      "proposed/certify";
    ]
    names;
  Alcotest.(check (list (pair string string)))
    "certificate summary" [ ("proposed", "verified") ]
    trace.Trace.certificates;
  List.iter
    (fun (s : Trace.stage) ->
      Alcotest.(check bool) (s.Trace.name ^ " wall >= 0") true (s.Trace.wall >= 0.0);
      Alcotest.(check bool)
        (s.Trace.name ^ " evaluated candidates") true (s.Trace.candidates > 0))
    trace.Trace.stages;
  let json = Trace.to_json trace in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true (contains needle))
    [ "\"stages\""; "\"cache\""; "\"budget_exhausted\""; "\"certificates\"" ]

let () =
  Alcotest.run "engine"
    [
      ( "parallel_map",
        [
          Alcotest.test_case "order and fallbacks" `Quick test_parallel_map_order;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_map_exception;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel = sequential on all benchmarks" `Quick
            test_parallel_matches_sequential;
        ] );
      ( "memo",
        [
          Alcotest.test_case "compare_methods hits the store" `Quick
            test_memo_hits_on_compare;
          Alcotest.test_case "cache off counts nothing" `Quick
            test_cache_off_never_counts;
          Alcotest.test_case "cache on and off concurrently" `Quick
            test_cache_settings_concurrent;
        ] );
      ( "budget",
        [
          Alcotest.test_case "exhaustion degrades gracefully" `Quick
            test_budget_exhaustion_graceful;
        ] );
      ( "trace",
        [ Alcotest.test_case "stages and json" `Quick test_trace_shape ] );
    ]
