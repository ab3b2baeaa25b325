(* Scenario: an 8-bit automotive kernel optimized modulo 2^8.

   Over narrow bit-vectors the finite-ring structure matters: polynomials
   that differ over the integers can be the same 8-bit function, and
   canonical forms both decide that equivalence and expose cheap
   falling-factorial building blocks.

   Run with:  dune exec examples/automotive_mibench.exe *)

module Z = Polysynth_zint.Zint
module P = Polysynth_poly.Poly
module Parse = Polysynth_poly.Parse
module Ring = Polysynth_finite_ring.Canonical
module Prog = Polysynth_expr.Prog
module Dag = Polysynth_expr.Dag
module Cost = Polysynth_hw.Cost
module Equiv = Polysynth_analysis.Equiv
module Engine = Polysynth_core.Engine
module B = Polysynth_workloads.Benchmarks

let () =
  let bench = Option.get (B.by_name "Mibench") in
  let width = bench.B.width in
  let ctx = Ring.make_ctx ~out_width:width () in

  (* 1. ring-aware equivalence checking: 128*x^2 and 128*x compute the same
     8-bit function (x^2 = x mod 2 and 128 kills the rest) *)
  let a = Parse.poly_exn "128*x^2" and b = Parse.poly_exn "128*x" in
  Format.printf "128*x^2 == 128*x over Z_2^8?  %b@.@."
    (Ring.equal_functions ctx a b);

  (* 2. synthesize the benchmark with and without ring knowledge *)
  let config = Engine.Config.default ~width in
  let plain, _ = Engine.synthesize config bench.B.polys in
  let ring, _ =
    Engine.synthesize { config with Engine.Config.ctx = Some ctx } bench.B.polys
  in
  Format.printf "without ring ctx: MULT=%d ADD=%d area=%d@."
    plain.Engine.counts.Dag.mults plain.Engine.counts.Dag.adds
    plain.Engine.cost.Cost.area;
  Format.printf "with    ring ctx: MULT=%d ADD=%d area=%d@.@."
    ring.Engine.counts.Dag.mults ring.Engine.counts.Dag.adds
    ring.Engine.cost.Cost.area;

  Format.printf "decomposition:@.%a@.@." Prog.pp ring.Engine.prog;
  assert (ring.Engine.cert = Equiv.Verified);

  (* 3. exhaustive bit-accurate check on a slice of the input space *)
  let outputs_match xv yv zv =
    let env v =
      match v with
      | "x" -> Z.of_int xv
      | "y" -> Z.of_int yv
      | _ -> Z.of_int zv
    in
    let produced = Prog.eval ring.Engine.prog env in
    List.for_all
      (fun (name, q) ->
        Z.equal
          (Z.erem_pow2 (P.eval env q) width)
          (Z.erem_pow2 (List.assoc name produced) width))
      (Prog.name_outputs bench.B.polys)
  in
  let ok = ref true in
  for xv = 0 to 255 do
    if not (outputs_match xv ((xv * 7) mod 256) ((xv * 13) mod 256)) then
      ok := false
  done;
  Format.printf "bit-accurate sweep over 256 input triples: %s@."
    (if !ok then "all match" else "MISMATCH")
