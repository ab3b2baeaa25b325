(* Quickstart: parse a polynomial system, synthesize it, inspect the result.

   Run with:  dune exec examples/quickstart.exe *)

module Parse = Polysynth_poly.Parse
module Prog = Polysynth_expr.Prog
module Dag = Polysynth_expr.Dag
module Cost = Polysynth_hw.Cost
module Equiv = Polysynth_analysis.Equiv
module Engine = Polysynth_core.Engine

let () =
  (* the motivating system from Table 14.1 of the paper *)
  let system =
    Parse.system_exn
      "x^2 + 6*x*y + 9*y^2;  4*x*y^2 + 12*y^3;  2*x^2*z + 6*x*y*z"
  in

  (* one call runs the whole integrated flow: representation building
     (square-free, CCE, cube extraction, algebraic division), combination
     search, CSE, and hardware cost estimation *)
  let result, trace = Engine.synthesize (Engine.Config.default ~width:16) system in

  Format.printf "chosen decomposition:@.%a@.@." Prog.pp result.Engine.prog;
  Format.printf "operators: %d MULT, %d ADD@." result.Engine.counts.Dag.mults
    result.Engine.counts.Dag.adds;
  Format.printf "estimated hardware: %a@." Cost.pp_report result.Engine.cost;

  (* the decomposition provably computes the same polynomials *)
  assert (result.Engine.cert = Equiv.Verified);
  Format.printf "verified: the program expands back to the input system@.@.";

  (* where the time went *)
  Format.printf "%a" Engine.Trace.pp trace
