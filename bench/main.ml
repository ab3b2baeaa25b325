(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation and times the synthesis flow with Bechamel (one Test.make per
   table harness, plus per-stage ablation timings).

   Run with:  dune exec bench/main.exe
   Fast mode: dune exec bench/main.exe -- --quick  (small benchmarks only)
   JSON mode: dune exec bench/main.exe -- --quick --json
              (tables suppressed; emits a polysynth-bench/1 document on
              stdout — see Polysynth_report.Bench_json.)
   Check:     dune exec bench/main.exe -- --validate FILE
              (validates a captured JSON document and exits non-zero on a
              schema violation; used by `make bench-json`.) *)

open Bechamel
module T = Polysynth_report.Tables
module Bench_json = Polysynth_report.Bench_json
module P = Polysynth_poly.Poly
module Ring = Polysynth_finite_ring.Canonical
module Squarefree = Polysynth_factor.Squarefree
module Extract = Polysynth_cse.Extract
module Kernel = Polysynth_cse.Kernel
module Cce = Polysynth_core.Cce
module Integrated = Polysynth_core.Integrated
module Engine = Polysynth_core.Engine
module Netlist = Polysynth_hw.Netlist
module Simplify = Polysynth_analysis.Simplify
module Ex = Polysynth_workloads.Examples
module B = Polysynth_workloads.Benchmarks

let has flag = Array.exists (fun a -> a = flag) Sys.argv

let arg_value flag =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let quick = has "--quick"
let json_mode = has "--json"

let quick_names = [ "SG 3x2"; "Quad"; "Mibench"; "MVCS" ]

let table_names = if quick then Some quick_names else None

(* ---- validation mode ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* the two results the acceptance gate tracks must always be present *)
let required_results =
  [ "polysynth/kernel_extraction_t143"; "polysynth/integrated_t143" ]

let () =
  match arg_value "--validate" with
  | None -> ()
  | Some path ->
    (match Bench_json.validate ~required:required_results (read_file path) with
     | Ok () ->
       Printf.printf "%s: valid %s document\n" path Bench_json.schema;
       exit 0
     | Error msg ->
       Printf.eprintf "%s: %s\n" path msg;
       exit 1)

(* ---- part 1: regenerate the paper's tables -------------------------------- *)

let () =
  if json_mode then ()
  else begin
    print_endline "=== Reproduction of the paper's tables ===";
    print_newline ();
    print_string
      (T.render_counts ~title:"Table 14.1 — decompositions of the motivating system"
         (T.table_14_1_rows ()));
    print_newline ();
    print_string
      (T.render_counts ~title:"Table 14.2 — Algorithm 7 walk-through"
         (T.table_14_2_rows ()));
    print_newline ();
    print_string (T.render_table_14_3 (T.table_14_3_rows ?names:table_names ()));
    print_newline ();
    print_string (T.render_ablation (T.ablation_rows ~names:quick_names ()));
    print_newline ();
    print_endline "Fig. 14.1 — representation lists (Table 14.2 system):";
    print_string (T.fig_14_1_dump ());
    print_newline ();
    print_string
      (T.render_named_ablation
         ~title:"Extraction strategy — greedy vs KCM prime rectangles"
         (T.strategy_rows ~names:quick_names ()));
    print_newline ();
    print_string
      (T.render_named_ablation ~title:"Search objective — area/delay/power/ops"
         (T.objective_rows ()));
    print_newline ();
    print_string (T.render_schedule (T.schedule_rows ()));
    print_newline ();
    print_endline "Extended workload suite:";
    print_string (T.render_table_14_3 (T.extended_rows ()));
    print_newline ();
    print_string (T.render_implementation (T.implementation_rows ()));
    print_newline ()
  end

(* ---- part 1b: certificate-guarded simplify pass --------------------------- *)

(* One row per benchmark: synthesize the proposed decomposition, lower it,
   run the guarded simplify pass and record how many cells it removed plus
   its wall time.  The counts also land in the JSON document as the
   optional [cells_eliminated] field. *)

let bench_slug name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | '0' .. '9' -> c | _ -> '_')
    (String.lowercase_ascii name)

(* operator cells that cost hardware: everything except inputs, constants
   and shifts (free wiring) — the count strength reduction lowers *)
let costed_ops (n : Netlist.t) =
  Array.fold_left
    (fun acc (c : Netlist.cell) ->
      match c.Netlist.op with
      | Netlist.Input _ | Netlist.Constant _ | Netlist.Shl _ -> acc
      | _ -> acc + 1)
    0 n.Netlist.cells

let simplify_rows () =
  let names =
    if quick then quick_names else List.map (fun b -> b.B.name) (B.all ())
  in
  List.map
    (fun n ->
      let b = Option.get (B.by_name n) in
      let config =
        {
          (Engine.Config.default ~width:b.B.width) with
          Engine.Config.parallelism = 1;
          certify = false;
        }
      in
      let r, _ = Engine.synthesize config b.B.polys in
      let net = Netlist.of_prog ~width:b.B.width r.Engine.prog in
      let named =
        List.mapi (fun i p -> (Printf.sprintf "P%d" (i + 1), p)) b.B.polys
      in
      let t0 = Unix.gettimeofday () in
      let o = Simplify.run ~system:named net in
      let t1 = Unix.gettimeofday () in
      (b.B.name, net, o, Float.max 1.0 ((t1 -. t0) *. 1e9)))
    names

let simplify_results = simplify_rows ()

let () =
  if json_mode then ()
  else begin
    print_endline
      "=== Certificate-guarded simplify pass (proposed netlists) ===";
    List.iter
      (fun (name, net, (o : Simplify.outcome), _ns) ->
        Printf.printf
          "  %-10s cells %3d -> %3d, costed ops %3d -> %3d  (%d \
           rewrite(s) applied, %d cell(s) eliminated)\n"
          name o.Simplify.stats.Simplify.cells_before
          o.Simplify.stats.Simplify.cells_after (costed_ops net)
          (costed_ops o.Simplify.netlist)
          o.Simplify.stats.Simplify.applied
          (Simplify.cells_eliminated o))
      simplify_results;
    print_newline ()
  end

(* ---- part 2: Bechamel timings --------------------------------------------- *)

let sg3 = (Option.get (B.by_name "SG 3x2")).B.polys
let mvcs = (Option.get (B.by_name "MVCS")).B.polys

(* the Table 14.3 benchmark set the trajectory numbers are computed over:
   the quick subset in --quick mode, all eight systems otherwise *)
let t143_systems =
  let names =
    if quick then quick_names else List.map (fun b -> b.B.name) (B.all ())
  in
  List.map (fun n -> (Option.get (B.by_name n)).B.polys) names

let stage f = Staged.stage f

(* one Test.make per table of the paper *)
let test_table_14_1 =
  Test.make ~name:"table_14_1" (stage (fun () -> ignore (T.table_14_1_rows ())))

let test_table_14_2 =
  Test.make ~name:"table_14_2" (stage (fun () -> ignore (T.table_14_2_rows ())))

let test_table_14_3_row =
  (* one representative row of Table 14.3 (the full table is printed above;
     timing the 25-polynomial systems per-iteration would take minutes) *)
  Test.make ~name:"table_14_3_row_quad"
    (stage (fun () -> ignore (T.table_14_3_rows ~names:[ "Quad" ] ())))

let test_fig_14_1 =
  Test.make ~name:"fig_14_1" (stage (fun () -> ignore (T.fig_14_1_dump ())))

(* per-stage ablation timings of the pipeline on SG 3x2 *)
let test_stage_cce =
  Test.make ~name:"stage_cce"
    (stage (fun () -> List.iter (fun p -> ignore (Cce.extract p)) sg3))

let test_stage_kernels =
  Test.make ~name:"stage_kernels"
    (stage (fun () -> List.iter (fun p -> ignore (Kernel.kernels p)) sg3))

let test_stage_squarefree =
  Test.make ~name:"stage_squarefree"
    (stage (fun () -> List.iter (fun p -> ignore (Squarefree.squarefree p)) sg3))

let test_stage_canonical =
  let ctx = Ring.make_ctx ~out_width:16 () in
  Test.make ~name:"stage_canonical"
    (stage (fun () -> List.iter (fun p -> ignore (Ring.canonicalize ctx p)) sg3))

let test_stage_extraction =
  Test.make ~name:"stage_extraction"
    (stage (fun () -> ignore (Extract.run ~mode:Extract.Vars_only sg3)))

(* the acceptance-gate pair: kernel/co-kernel extraction and end-to-end
   integrated synthesis over the Table 14.3 set *)
let test_kernel_t143 =
  Test.make ~name:"kernel_extraction_t143"
    (stage (fun () ->
         List.iter
           (fun polys -> List.iter (fun p -> ignore (Kernel.kernels p)) polys)
           t143_systems))

let test_kernel_t143_cold =
  (* same work with the kernel memo table dropped first, so this measures
     the raw representation rather than cache hits *)
  Test.make ~name:"kernel_extraction_t143_cold"
    (stage (fun () ->
         Kernel.clear_cache ();
         List.iter
           (fun polys -> List.iter (fun p -> ignore (Kernel.kernels p)) polys)
           t143_systems))

let test_integrated_t143 =
  Test.make ~name:"integrated_t143"
    (stage (fun () ->
         List.iter
           (fun polys -> ignore (Integrated.decompose_cce_first polys))
           t143_systems))

(* a cold Proposed run: the representation store is off and the kernelling
   and flat-cost memos are emptied first, so every iteration measures a full
   representation build rather than memo lookups *)
let engine_proposed ~parallelism polys =
  Engine.clear_cache ();
  ignore
    (Engine.run
       { (Engine.Config.default ~width:16) with
         Engine.Config.parallelism;
         cache = false }
       Engine.Proposed polys)

let test_pipeline_mvcs =
  Test.make ~name:"engine_proposed_mvcs"
    (stage (fun () -> engine_proposed ~parallelism:1 mvcs))

let test_pipeline_table_14_1 =
  Test.make ~name:"engine_proposed_14_1"
    (stage (fun () -> engine_proposed ~parallelism:1 Ex.table_14_1))

(* the 9-polynomial SG 3x2 system at parallelism 1 and at one domain per
   core: only the integrated variants fan out (the representation build is
   sequential), and on a single-core host the two coincide (the engine
   falls back to List.map) *)
let test_engine_sequential =
  Test.make ~name:"engine_sg3_sequential"
    (stage (fun () -> engine_proposed ~parallelism:1 sg3))

let test_engine_parallel =
  Test.make ~name:"engine_sg3_parallel"
    (stage (fun () -> engine_proposed ~parallelism:0 sg3))

let test_stage_kcm =
  Test.make ~name:"stage_kcm_extraction"
    (stage (fun () ->
         ignore (Extract.run ~mode:Extract.Vars_only ~strategy:Extract.Kcm_rectangles sg3)))

let tests =
  Test.make_grouped ~name:"polysynth" ~fmt:"%s/%s"
    [
      test_table_14_1;
      test_table_14_2;
      test_table_14_3_row;
      test_fig_14_1;
      test_stage_cce;
      test_stage_kernels;
      test_stage_squarefree;
      test_stage_canonical;
      test_stage_extraction;
      test_stage_kcm;
      test_kernel_t143;
      test_kernel_t143_cold;
      test_integrated_t143;
      test_pipeline_mvcs;
      test_pipeline_table_14_1;
      test_engine_sequential;
      test_engine_parallel;
    ]

let () =
  if not json_mode then
    print_endline "=== Bechamel timings (ns per call, OLS fit) ===";
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~stabilize:true
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let rows =
    List.map
      (fun (name, est) ->
        let ns =
          match Analyze.OLS.estimates est with
          | Some (v :: _) -> v
          | Some [] | None -> nan
        in
        (name, ns))
      rows
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  if json_mode then begin
    let entries =
      List.map
        (fun (name, ns) ->
          { Bench_json.name; ns_per_run = ns; cells_eliminated = None })
        rows
      @ List.map
          (fun (name, _net, o, ns) ->
            {
              Bench_json.name = "polysynth/simplify_" ^ bench_slug name;
              ns_per_run = ns;
              cells_eliminated = Some (Simplify.cells_eliminated o);
            })
          simplify_results
    in
    print_string
      (Bench_json.render
         ~mode:(if quick then "quick" else "full")
         entries)
  end
  else
    List.iter
      (fun (name, ns) -> Printf.printf "  %-36s %12.0f ns/run\n" name ns)
      rows
