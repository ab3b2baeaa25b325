(* Regenerate every table and figure of the paper's evaluation.

   Usage:
     experiments                 all tables (about 10 s on a 2-core host)
     experiments --quick         small benchmarks only
     experiments --fig1          the Fig. 14.1 representation dump
     experiments --ablation      the stage-contribution ablation
     experiments --strategies    greedy vs KCM extraction baselines
     experiments --objectives    area/delay/power/ops objectives
     experiments --schedule      latency vs resource budgets
     experiments --extended      the extra workload suite
     experiments --mcm           shift-add lowering of constant multipliers *)

module T = Polysynth_report.Tables

let quick_names = [ "SG 3x2"; "Quad"; "Mibench"; "MVCS" ]

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  if has "--fig1" then print_string (T.fig_14_1_dump ())
  else if has "--ablation" then begin
    let names = if has "--quick" then Some quick_names else None in
    print_string
      (T.render_named_ablation
         ~title:"Ablation — pipeline variants in isolation"
         (T.ablation_rows ?names ()))
  end
  else if has "--strategies" then
    print_string
      (T.render_named_ablation
         ~title:"Extraction strategy — greedy vs KCM prime rectangles"
         (T.strategy_rows ~names:quick_names ()))
  else if has "--objectives" then
    print_string
      (T.render_named_ablation
         ~title:"Search objective — area / delay / power / ops"
         (T.objective_rows ()))
  else if has "--schedule" then
    print_string (T.render_schedule (T.schedule_rows ()))
  else if has "--extended" then
    print_string (T.render_table_14_3 (T.extended_rows ()))
  else if has "--mcm" then
    print_string
      (T.render_named_ablation
         ~title:"MCM — shared shift-add lowering of constant multipliers"
         (T.mcm_rows ()))
  else begin
    print_string
      (T.render_counts
         ~title:"Table 14.1 — decompositions of the motivating system"
         (T.table_14_1_rows ()));
    print_newline ();
    print_string
      (T.render_counts ~title:"Table 14.2 — Algorithm 7 walk-through"
         (T.table_14_2_rows ()));
    print_newline ();
    let names = if has "--quick" then Some quick_names else None in
    print_string (T.render_table_14_3 (T.table_14_3_rows ?names ()))
  end
