(* Scenario: synthesizing a 2-D Savitzky-Golay smoothing filter bank.

   A 5x5 window, degree-2 SG filter evaluates 25 kernel polynomials — one
   per window position — over the fit coordinates.  This is the "SG 5x2"
   benchmark of the paper's Table 14.3.  The example generates the exact
   least-squares system, compares all four synthesis methods, and emits
   Verilog for the best one.

   Run with:  dune exec examples/savitzky_golay_filter.exe *)

module P = Polysynth_poly.Poly
module Ring = Polysynth_finite_ring.Canonical
module Dag = Polysynth_expr.Dag
module Cost = Polysynth_hw.Cost
module Verilog = Polysynth_hw.Verilog
module Engine = Polysynth_core.Engine
module SG = Polysynth_workloads.Savitzky_golay

let () =
  let width = 16 in
  let system = SG.system ~window:5 ~degree:2 in
  Format.printf "SG 5x2: %d polynomials, first kernel:@.  %s@.@."
    (List.length system)
    (P.to_string (List.hd system));

  let ctx = Ring.make_ctx ~out_width:width () in
  let config =
    { (Engine.Config.default ~width) with Engine.Config.ctx = Some ctx }
  in
  let reports, trace = Engine.compare_methods config system in
  List.iter
    (fun r ->
      Format.printf "%-12s MULT=%-3d ADD=%-3d area=%-7d delay=%.1f@."
        (Engine.method_label r.Engine.method_name)
        r.Engine.counts.Dag.mults r.Engine.counts.Dag.adds
        r.Engine.cost.Cost.area r.Engine.cost.Cost.delay)
    reports;
  Format.printf "(%d memo hits across the representation and kernel \
                 tables)@."
    trace.Engine.Trace.cache_hits;

  let proposed = List.nth reports 3 in
  assert (Engine.verify ~ctx system proposed.Engine.prog);

  let verilog =
    Verilog.emit_prog ~module_name:"sg5x2_bank" ~width proposed.Engine.prog
  in
  let lines = String.split_on_char '\n' verilog in
  Format.printf "@.Verilog (%d lines), interface:@." (List.length lines);
  List.iteri (fun i l -> if i < 8 then Format.printf "  %s@." l) lines
