module Dag = Polysynth_expr.Dag
module Prog = Polysynth_expr.Prog
module Ring = Polysynth_finite_ring.Canonical
module Cost = Polysynth_hw.Cost
module Engine = Polysynth_core.Engine
module Search = Polysynth_core.Search
module Represent = Polysynth_core.Represent
module Integrated = Polysynth_core.Integrated
module Baselines = Polysynth_core.Baselines
module B = Polysynth_workloads.Benchmarks
module Ex = Polysynth_workloads.Examples

(* every row goes through the unified engine; the shared memo means the
   repeated Proposed runs across the studies build each system's
   representation store only once *)
let run_method ?ctx ?objective ~width m polys =
  let base = Engine.Config.default ~width in
  let config =
    {
      base with
      Engine.Config.ctx;
      objective =
        Option.value objective ~default:base.Engine.Config.objective;
    }
  in
  fst (Engine.run config m polys)

type counts_row = { scheme : string; mults : int; adds : int }

let counts_row scheme (c : Dag.counts) =
  { scheme; mults = c.Dag.mults; adds = c.Dag.adds }

let table_14_1_rows () =
  let system = Ex.table_14_1 in
  let direct = Prog.tree_counts (Baselines.direct system) in
  let horner = Prog.tree_counts (Baselines.horner system) in
  let factor = Prog.counts (Baselines.factor_cse system) in
  let proposed = (run_method ~width:16 Engine.Proposed system).Engine.counts in
  [
    counts_row "direct" direct;
    counts_row "horner" horner;
    counts_row "factoring+CSE" factor;
    counts_row "proposed" proposed;
  ]

let table_14_2_rows () =
  let system = Ex.table_14_2 in
  let ctx = Ring.make_ctx ~out_width:16 () in
  let initial = Prog.tree_counts (Baselines.direct system) in
  let final = (run_method ~ctx ~width:16 Engine.Proposed system).Engine.counts in
  [ counts_row "initial (direct)" initial; counts_row "final (proposed)" final ]

type bench_row = {
  name : string;
  characteristics : string;
  num_polys : int;
  base_area : int;
  base_delay : float;
  prop_area : int;
  prop_delay : float;
  area_improvement_pct : float;
  delay_improvement_pct : float;
}

let bench_row (b : B.t) =
  let ctx = Ring.make_ctx ~out_width:b.B.width () in
  let base = run_method ~ctx ~width:b.B.width Engine.Factor_cse b.B.polys in
  let prop = run_method ~ctx ~width:b.B.width Engine.Proposed b.B.polys in
  let pct a b = 100.0 *. (1.0 -. (a /. b)) in
  {
    name = b.B.name;
    characteristics =
      Printf.sprintf "%d/%d/%d" b.B.num_vars b.B.degree b.B.width;
    num_polys = List.length b.B.polys;
    base_area = base.Engine.cost.Cost.area;
    base_delay = base.Engine.cost.Cost.delay;
    prop_area = prop.Engine.cost.Cost.area;
    prop_delay = prop.Engine.cost.Cost.delay;
    area_improvement_pct =
      pct (float_of_int prop.Engine.cost.Cost.area)
        (float_of_int base.Engine.cost.Cost.area);
    delay_improvement_pct = pct prop.Engine.cost.Cost.delay base.Engine.cost.Cost.delay;
  }

(* the named benchmarks in the given order, unknown names skipped; all of
   them when no names are given *)
let benchmarks ?names () =
  match names with
  | None -> B.all ()
  | Some names -> List.filter_map B.by_name names

let table_14_3_rows ?names () = List.map bench_row (benchmarks ?names ())

let average_area_improvement rows =
  match rows with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc r -> acc +. r.area_improvement_pct) 0.0 rows
    /. float_of_int (List.length rows)

let fig_14_1_dump () =
  let system = Ex.table_14_2 in
  let ctx = Ring.make_ctx ~out_width:16 () in
  let representations = Represent.build ~ctx system in
  let selection =
    Search.select (Search.default_options ~width:16) representations
  in
  let buf = Buffer.create 1024 in
  List.iter2
    (fun (name, reps) chosen ->
      Buffer.add_string buf (name ^ ":\n");
      List.iter
        (fun (rep : Represent.rep) ->
          Buffer.add_string buf
            (Printf.sprintf "  %c %-16s %s\n"
               (if rep.Represent.label = chosen then '*' else ' ')
               rep.Represent.label
               (Polysynth_expr.Expr.to_string rep.Represent.expr)))
        reps)
    (Prog.name_outputs (Array.to_list representations.Represent.reps))
    selection.Search.labels;
  Buffer.add_string buf
    (Printf.sprintf "selected combination: [%s]\n"
       (String.concat "; " selection.Search.labels));
  Buffer.contents buf

type ablation_row = { variant : string; area : int; delay : float; ops : int }

let ablation_row variant (cost : Cost.report) counts =
  { variant; area = cost.Cost.area; delay = cost.Cost.delay;
    ops = Dag.total_ops counts }

(* a program built outside the engine, lowered here *)
let ablation_of_prog ~width variant prog =
  ablation_row variant (Cost.of_prog ~width prog) (Prog.counts prog)

let ablation_of_report variant (r : Engine.report) =
  ablation_row variant r.Engine.cost r.Engine.counts

let ablation_rows ?names () =
  let selected = benchmarks ?names () in
  List.map
    (fun (b : B.t) ->
      let w = b.B.width in
      let ctx = Ring.make_ctx ~out_width:w () in
      let search_only =
        let representations = Represent.build ~ctx b.B.polys in
        (Search.select (Search.default_options ~width:w) representations)
          .Search.prog
      in
      let rows =
        [
          ablation_of_prog ~width:w "direct" (Baselines.direct b.B.polys);
          ablation_of_prog ~width:w "horner" (Baselines.horner b.B.polys);
          ablation_of_prog ~width:w "factor+cse" (Baselines.factor_cse b.B.polys);
          ablation_of_prog ~width:w "search-only" search_only;
        ]
        @ List.map
            (fun (label, build) ->
              ablation_of_prog ~width:w label (build b.B.polys))
            Integrated.variants
        @ [
            ablation_of_report "proposed"
              (run_method ~ctx ~width:w Engine.Proposed b.B.polys);
          ]
      in
      (b.B.name, rows))
    selected

(* ---- extended studies ------------------------------------------------------ *)

module Extract = Polysynth_cse.Extract
module Schedule = Polysynth_hw.Schedule
module Extended = Polysynth_workloads.Extended

let strategy_rows ?names () =
  let selected = benchmarks ?names () in
  List.map
    (fun (b : B.t) ->
      let w = b.B.width in
      let prog_of strategy =
        (Extract.run ~mode:Extract.Coeff_literals ~strategy ~signs:false
           b.B.polys)
          .Extract.prog
      in
      ( b.B.name,
        [
          ablation_of_prog ~width:w "greedy" (prog_of Extract.Greedy);
          ablation_of_prog ~width:w "kcm-rectangles"
            (prog_of Extract.Kcm_rectangles);
        ] ))
    selected

let objective_rows ?(names = [ "Quad"; "Mibench"; "MVCS" ]) () =
  benchmarks ~names ()
  |> List.map (fun (b : B.t) ->
         let w = b.B.width in
         let rows =
           List.map
             (fun (label, objective) ->
               ablation_of_report label
                 (run_method ~objective ~width:w Engine.Proposed b.B.polys))
             [
               ("min-area", Search.Min_area);
               ("min-delay", Search.Min_delay);
               ("min-power", Search.Min_power);
               ("min-ops", Search.Min_ops);
             ]
         in
         (b.B.name, rows))

let schedule_rows ?(names = [ "SG 3x2"; "Quad"; "MVCS" ]) () =
  benchmarks ~names ()
  |> List.map (fun (b : B.t) ->
         let w = b.B.width in
         let r = run_method ~width:w Engine.Proposed b.B.polys in
         let n = r.Engine.netlist in
         let budgets =
           [ (1, 1); (1, 2); (2, 2); (4, 4); (max_int, max_int) ]
         in
         let rows =
           List.map
             (fun (m, a) ->
               let label =
                 if m = max_int then "unlimited"
                 else Printf.sprintf "%dmul/%dadd" m a
               in
               let s =
                 Schedule.list_schedule_exn
                   { Schedule.multipliers = m; adders = a }
                   n
               in
               (label, s.Schedule.latency))
             budgets
         in
         (b.B.name, rows))

let extended_rows () = List.map bench_row (Extended.extended_suite ())

let mcm_rows ?(names = [ "SG 3x2"; "SG 4x2"; "Quad"; "Mibench"; "MVCS" ]) () =
  benchmarks ~names ()
  |> List.map (fun (b : B.t) ->
         let w = b.B.width in
         let r = run_method ~width:w Engine.Proposed b.B.polys in
         let n = r.Engine.netlist in
         let row variant n =
           let c = Cost.of_netlist n in
           { variant; area = c.Cost.area; delay = c.Cost.delay;
             ops = Cost.total_operators c }
         in
         ( b.B.name,
           [ row "proposed" n; row "proposed+mcm" (Polysynth_hw.Mcm.optimize n) ]
         ))

let render_named_ablation ~title groups =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  List.iter
    (fun (name, rows) ->
      Buffer.add_string buf (Printf.sprintf "  %s:\n" name);
      List.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "    %-24s area=%8d delay=%6.1f ops=%4d\n"
               r.variant r.area r.delay r.ops))
        rows)
    groups;
  Buffer.contents buf

let render_schedule groups =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Scheduling — latency (steps) of the proposed decomposition vs resources\n";
  List.iter
    (fun (name, rows) ->
      Buffer.add_string buf (Printf.sprintf "  %-8s" name);
      List.iter
        (fun (label, latency) ->
          Buffer.add_string buf (Printf.sprintf "  %s:%d" label latency))
        rows;
      Buffer.add_string buf "\n")
    groups;
  Buffer.contents buf

let render_counts ~title rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (Printf.sprintf "  %-18s %6s %6s\n" "scheme" "MULT" "ADD");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-18s %6d %6d\n" r.scheme r.mults r.adds))
    rows;
  Buffer.contents buf

let render_table_14_3 rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 14.3 — factorization/CSE baseline vs proposed method\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-8s %-9s %6s | %9s %7s | %9s %7s | %7s %7s\n" "system"
       "var/deg/m" "#polys" "base area" "delay" "prop area" "delay" "area%"
       "delay%");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %-8s %-9s %6d | %9d %7.1f | %9d %7.1f | %+7.1f %+7.1f\n" r.name
           r.characteristics r.num_polys r.base_area r.base_delay r.prop_area
           r.prop_delay r.area_improvement_pct r.delay_improvement_pct))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "  average area improvement: %.1f%%\n"
       (average_area_improvement rows));
  Buffer.contents buf
