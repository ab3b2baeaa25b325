(* Scenario: a quadratic (Volterra) filter section built with the library
   API rather than the parser, then simulated bit-accurately.

   Polynomial signal processing (Mathews & Sicuranza) implements filters
   y[n] = sum a_i x_i + sum b_ij x_i x_j; with symmetric kernels the
   quadratic part is a perfect square, which the proposed flow detects and
   turns into one multiplier.

   Run with:  dune exec examples/quadratic_filter.exe *)

module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Prog = Polysynth_expr.Prog
module Netlist = Polysynth_hw.Netlist
module Equiv = Polysynth_analysis.Equiv
module Engine = Polysynth_core.Engine

let () =
  (* build 4*(x + y)^2 + 5*x + 10*y + 3 from the Poly combinators *)
  let x = P.var "x" and y = P.var "y" in
  let symmetric = P.mul_scalar (Z.of_int 4) (P.pow (P.add x y) 2) in
  let channel1 =
    P.add_list
      [ symmetric; P.mul_scalar (Z.of_int 5) x; P.mul_scalar (Z.of_int 10) y;
        P.of_int 3 ]
  in
  let channel2 =
    P.add_list
      [ P.mul_scalar (Z.of_int 6) (P.pow (P.add x y) 2);
        P.mul_scalar (Z.of_int 7) (P.sub x y); P.of_int 2 ]
  in
  let system = [ channel1; channel2 ] in
  List.iteri
    (fun i q -> Format.printf "channel %d: %s@." (i + 1) (P.to_string q))
    system;

  let result, _trace =
    Engine.synthesize (Engine.Config.default ~width:16) system
  in
  Format.printf "@.decomposition:@.%a@.@." Prog.pp result.Engine.prog;
  assert (result.Engine.cert = Equiv.Verified);

  (* simulate the synthesized netlist on a short input stream and check it
     against direct polynomial evaluation (both wrap at 16 bits) *)
  let netlist = result.Engine.netlist in
  let samples = [ (0, 0); (1, 2); (100, 50); (65535, 1); (1234, 4321) ] in
  List.iter
    (fun (xv, yv) ->
      let env v = if String.equal v "x" then Z.of_int xv else Z.of_int yv in
      let outputs = Netlist.eval netlist env in
      let values =
        List.map
          (fun (name, q) ->
            let v = List.assoc name outputs in
            assert (Z.equal (Z.erem_pow2 (P.eval env q) 16) v);
            Z.to_string v)
          (Prog.name_outputs system)
      in
      Format.printf "x=%-6d y=%-6d ->" xv yv;
      List.iteri (fun i v -> Format.printf " y%d=%s" (i + 1) v) values;
      Format.printf "@.")
    samples;
  Format.printf "netlist simulation matches polynomial evaluation@."
