(* Alcotest printers shared by the test executables: the library prints its
   values through [to_string] alone, and rationals not at all.  And the
   symbolic decision of function equality over Z_2^m (equal canonical
   forms), with which the tests check a program the engine did not return
   and which is the oracle the point-set certifier is compared against. *)

module Z = Polysynth_zint.Zint
module Q = Polysynth_rat.Qint
module P = Polysynth_poly.Poly
module Mono = Polysynth_poly.Monomial
module Prog = Polysynth_expr.Prog
module Canonical = Polysynth_finite_ring.Canonical

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

(* do [p] and [q] compute the same bit-vector function on the ring? *)
let equal_functions ctx p q =
  let terms p = Canonical.falling_terms (Canonical.canonicalize ctx p) in
  List.equal
    (fun (c, m) (c', m') -> Z.equal c c' && Mono.equal m m')
    (terms p) (terms q)

(* [p] at [env], reduced into [0, 2^m) *)
let eval_mod ctx p env = Z.erem_pow2 (P.eval env p) (Canonical.out_width ctx)

(* Does [prog] compute [polys] (as bit-vector functions under [ctx])?
   Decided by expanding every output: exact polynomial identity over Z,
   equal canonical forms over the ring. *)
let verify ?ctx polys prog =
  let produced = Prog.to_polys prog in
  List.for_all
    (fun (name, p) ->
      match List.assoc_opt name produced, ctx with
      | None, _ -> false
      | Some q, Some ctx -> equal_functions ctx p q
      | Some q, None -> P.equal p q)
    (Prog.name_outputs polys)
