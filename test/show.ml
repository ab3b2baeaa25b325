(* Alcotest printers shared by the test executables: the library prints its
   values through [to_string] alone, and rationals not at all.  And one
   check of a program the engine did not return, which carries no
   certificate of its own. *)

module Z = Polysynth_zint.Zint
module Q = Polysynth_rat.Qint
module P = Polysynth_poly.Poly
module Mono = Polysynth_poly.Monomial
module Equiv = Polysynth_analysis.Equiv

let testable to_string equal =
  Alcotest.testable (fun f x -> Format.pp_print_string f (to_string x)) equal

let zint = testable Z.to_string Z.equal
let poly = testable P.to_string P.equal
let mono = testable Mono.to_string Mono.equal

(* [n/d] in lowest terms, or [n] for an integer *)
let q_to_string q =
  let d = Q.den q in
  let n = Q.to_zint_exn (Q.mul q (Q.of_zint d)) in
  if Z.is_one d then Z.to_string n else Z.to_string n ^ "/" ^ Z.to_string d

let q = testable q_to_string Q.equal

(* Does [prog] compute [polys] (as bit-vector functions under [ctx])?  An
   uncapped certification never answers [Unknown]. *)
let verify ?ctx polys prog =
  Equiv.certify ?ctx ~size_budget:max_int polys prog = Equiv.Verified
