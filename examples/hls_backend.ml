(* Scenario: taking a decomposition through the hardware back-end —
   scheduling under resource constraints, power estimation, bit-width
   range analysis, and testbench generation.

   Run with:  dune exec examples/hls_backend.exe *)

module Parse = Polysynth_poly.Parse
module Prog = Polysynth_expr.Prog
module Cost = Polysynth_hw.Cost
module Power = Polysynth_hw.Power
module Schedule = Polysynth_hw.Schedule
module Bind = Polysynth_hw.Bind
module Testbench = Polysynth_hw.Testbench
module Widths = Polysynth_analysis.Widths
module Engine = Polysynth_core.Engine

let () =
  let width = 16 in
  let system =
    Parse.system_exn
      "13*x^2 + 26*x*y + 13*y^2 + 7*x - 7*y + 11;
       15*x^2 - 30*x*y + 15*y^2 + 11*x + 11*y + 9"
  in
  let result, _trace = Engine.synthesize (Engine.Config.default ~width) system in
  Format.printf "decomposition:@.%a@.@." Prog.pp result.Engine.prog;

  let netlist = result.Engine.netlist in

  (* area/delay, power and wordlength growth of the implementation *)
  Format.printf "cost:  %a@." Cost.pp_report (Cost.of_netlist netlist);
  Format.printf "%a@." Power.pp_report (Power.estimate netlist);
  Format.printf
    "range: widest intermediate needs %d bits (input range 0..2^%d-1)@.@."
    (Widths.max_required_width netlist)
    width;

  (* latency under shrinking resource budgets *)
  Format.printf "scheduling (2-cycle multipliers, 1-cycle adders):@.";
  List.iter
    (fun (m, a) ->
      let s =
        Schedule.list_schedule { Schedule.multipliers = m; adders = a } netlist
      in
      Format.printf "  %d multiplier(s), %d adder(s): %d steps@." m a
        s.Schedule.latency)
    [ (4, 4); (2, 2); (1, 2); (1, 1) ];

  (* schedule and bind at 1 multiplier / 1 adder onto units and registers *)
  let b = Bind.bind { Schedule.multipliers = 1; adders = 1 } netlist in
  Format.printf
    "@.binding at 1 multiplier / 1 adder: %d multiplier(s), %d adder(s), %d \
     register(s), %d mux input(s)@."
    b.Bind.num_multipliers b.Bind.num_adders b.Bind.num_registers
    b.Bind.mux_inputs;

  (* a self-checking testbench to hand to a simulator *)
  let tb = Testbench.emit ~module_name:"polysynth" ~vectors:8 netlist in
  Format.printf "@.testbench: %d lines of self-checking Verilog@."
    (List.length (String.split_on_char '\n' tb))
