module Z = Polysynth_zint.Zint
module Mono = Polysynth_poly.Monomial
module P = Polysynth_poly.Poly
module Parse = Polysynth_poly.Parse
module Symtab = Polysynth_poly.Symtab

let poly = Show.poly
let check_p = Alcotest.check poly
let mono = Show.mono

let p = Parse.poly_exn

(* random polynomial generator ---------------------------------------------- *)

let gen_poly =
  let open QCheck.Gen in
  let gen_mono =
    list_size (int_range 0 3)
      (pair (oneofl [ "x"; "y"; "z"; "w" ]) (int_range 1 3))
    >|= Mono.of_list
  in
  let gen_term = pair (int_range (-9) 9) gen_mono in
  list_size (int_range 0 6) gen_term
  >|= fun terms ->
  P.of_terms (List.map (fun (c, m) -> (Z.of_int c, m)) terms)

let arb_poly = QCheck.make gen_poly ~print:P.to_string

let env_of_list bindings v =
  match List.assoc_opt v bindings with Some n -> Z.of_int n | None -> Z.zero

let gen_env =
  QCheck.Gen.(
    map
      (fun (a, b, c, d) -> [ ("x", a); ("y", b); ("z", c); ("w", d) ])
      (quad (int_range (-10) 10) (int_range (-10) 10) (int_range (-10) 10)
         (int_range (-10) 10)))

let arb_two_polys_env =
  QCheck.make
    QCheck.Gen.(triple gen_poly gen_poly gen_env)
    ~print:(fun (a, b, _) -> P.to_string a ^ " || " ^ P.to_string b)

let prop name ?(count = 300) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* monomial tests ------------------------------------------------------------ *)

let test_mono_of_list () =
  Alcotest.check mono "combine dups" (Mono.of_list [ ("x", 3) ])
    (Mono.of_list [ ("x", 1); ("x", 2) ]);
  Alcotest.check mono "drop zero" Mono.one (Mono.of_list [ ("x", 0) ]);
  Alcotest.check_raises "negative"
    (Invalid_argument "Monomial.of_list: negative exponent") (fun () ->
      ignore (Mono.of_list [ ("x", -1) ]))

let test_mono_order () =
  let m s = (Parse.poly_exn s |> P.leading |> snd) in
  Alcotest.(check bool) "deg dominates" true (Mono.compare (m "x*y*z") (m "x^2") > 0);
  Alcotest.(check bool) "x^2 > x*y" true (Mono.compare (m "x^2") (m "x*y") > 0);
  Alcotest.(check bool) "x*y > x*z" true (Mono.compare (m "x*y") (m "x*z") > 0);
  Alcotest.(check bool) "1 minimal" true (Mono.compare Mono.one (m "x") < 0);
  Alcotest.(check int) "reflexive" 0 (Mono.compare (m "x*y^2") (m "x*y^2"))

let test_mono_div () =
  let m l = Mono.of_list l in
  Alcotest.(check bool) "divides" true
    (Mono.divides (m [ ("x", 1) ]) (m [ ("x", 2); ("y", 1) ]));
  Alcotest.(check bool) "not divides" false
    (Mono.divides (m [ ("z", 1) ]) (m [ ("x", 2) ]));
  (match Mono.div (m [ ("x", 2); ("y", 1) ]) (m [ ("x", 1) ]) with
   | Some q -> Alcotest.check mono "quotient" (m [ ("x", 1); ("y", 1) ]) q
   | None -> Alcotest.fail "expected divisible");
  Alcotest.(check bool) "div fails" true
    (Mono.div (m [ ("x", 1) ]) (m [ ("y", 1) ]) = None)

let test_mono_gcd_lcm () =
  let m l = Mono.of_list l in
  Alcotest.check mono "gcd"
    (m [ ("x", 1); ("y", 1) ])
    (Mono.gcd (m [ ("x", 2); ("y", 1) ]) (m [ ("x", 1); ("y", 3); ("z", 1) ]));
  Alcotest.check mono "lcm"
    (m [ ("x", 2); ("y", 3); ("z", 1) ])
    (Mono.lcm (m [ ("x", 2); ("y", 1) ]) (m [ ("x", 1); ("y", 3); ("z", 1) ]))

(* regression: of_list used to combine duplicates with a quadratic,
   non-tail-recursive pass; 10k bindings must stay instant and safe *)
let test_mono_of_list_large () =
  let n = 10_000 in
  let bindings = List.init n (fun i -> ("lv" ^ string_of_int (i mod 7), 1)) in
  let m = Mono.of_list bindings in
  Alcotest.(check int) "degree" n (Mono.degree m);
  Alcotest.(check int) "distinct vars" 7 (List.length (Mono.to_list m))

(* reference semantics --------------------------------------------------------

   An executable model of the monomial order on plain sorted association
   lists, independent of the interned packed representation.  The
   properties below check that the interned [Monomial] agrees with it on
   every operation, through the [to_list] view. *)

module MRef = struct
  (* a monomial is a (string * int) list sorted by name, all exponents > 0 *)

  let of_list l =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (v, e) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
        Hashtbl.replace tbl v (prev + e))
      l;
    Hashtbl.fold (fun v e acc -> if e > 0 then (v, e) :: acc else acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let degree m = List.fold_left (fun n (_, e) -> n + e) 0 m

  (* graded lex: total degree first, then alphabetically-earlier variables
     are more significant and a higher exponent on them wins *)
  let compare a b =
    let c = Stdlib.compare (degree a) (degree b) in
    if c <> 0 then c
    else
      let rec lex a b =
        match (a, b) with
        | [], [] -> 0
        | [], _ :: _ -> -1
        | _ :: _, [] -> 1
        | (va, ea) :: ta, (vb, eb) :: tb ->
          let c = String.compare va vb in
          if c < 0 then 1
          else if c > 0 then -1
          else if ea <> eb then Stdlib.compare ea eb
          else lex ta tb
      in
      lex a b

  let mul a b = of_list (a @ b)

  let gcd a b =
    List.filter_map
      (fun (v, e) ->
        match List.assoc_opt v b with
        | Some e' -> Some (v, Stdlib.min e e')
        | None -> None)
      a

  let exp m v = Option.value ~default:0 (List.assoc_opt v m)

  let lcm a b =
    of_list
      (List.map (fun (v, e) -> (v, Stdlib.max e (exp b v))) a
      @ List.filter (fun (v, _) -> exp a v = 0) b)

  let divides d m = List.for_all (fun (v, e) -> e <= exp m v) d

  let div a b =
    if divides b a then Some (of_list (a @ List.map (fun (v, e) -> (v, -e)) b))
    else None
end

let gen_bindings =
  QCheck.Gen.(
    list_size (int_range 0 8)
      (pair (oneofl [ "x"; "y"; "z"; "w"; "u"; "v" ]) (int_range 0 4)))

let print_bindings l =
  "["
  ^ String.concat "; "
      (List.map (fun (v, e) -> v ^ "^" ^ string_of_int e) l)
  ^ "]"

let arb_bindings = QCheck.make gen_bindings ~print:print_bindings

let arb_two_bindings =
  QCheck.make
    QCheck.Gen.(pair gen_bindings gen_bindings)
    ~print:(fun (a, b) -> print_bindings a ^ " || " ^ print_bindings b)

let sign n = Stdlib.compare n 0

let prop_mono_of_list_ref =
  prop "interned of_list matches reference" arb_bindings (fun l ->
      Mono.to_list (Mono.of_list l) = MRef.of_list l)

let prop_mono_compare_ref =
  prop "interned compare matches reference" arb_two_bindings (fun (a, b) ->
      sign (Mono.compare (Mono.of_list a) (Mono.of_list b))
      = sign (MRef.compare (MRef.of_list a) (MRef.of_list b)))

let prop_mono_mul_gcd_ref =
  prop "interned mul/gcd match reference" arb_two_bindings (fun (a, b) ->
      let ma = Mono.of_list a and mb = Mono.of_list b in
      Mono.to_list (Mono.mul ma mb) = MRef.mul (MRef.of_list a) (MRef.of_list b)
      && Mono.to_list (Mono.gcd ma mb)
         = MRef.gcd (MRef.of_list a) (MRef.of_list b))

let prop_mono_div_ref =
  prop "interned div matches reference" arb_two_bindings (fun (a, b) ->
      let ma = Mono.of_list a and mb = Mono.of_list b in
      match (Mono.div ma mb, MRef.div (MRef.of_list a) (MRef.of_list b)) with
      | Some q, Some q' -> Mono.to_list q = q'
      | None, None -> true
      | _ -> false)

let prop_mono_lcm_divides_ref =
  prop "interned lcm/divides match reference" arb_two_bindings (fun (a, b) ->
      let ma = Mono.of_list a and mb = Mono.of_list b in
      let ra = MRef.of_list a and rb = MRef.of_list b in
      Mono.to_list (Mono.lcm ma mb) = MRef.lcm ra rb
      && Mono.divides mb ma = MRef.divides rb ra
      && Mono.divides ma (Mono.mul ma mb))

(* [mul] does not hash-cons, so the two products are physically distinct
   and [equal] runs its comparison loop *)
let prop_mono_equal_degree_of_ref =
  prop "interned equal/degree_of match reference" arb_two_bindings
    (fun (a, b) ->
      let ma = Mono.of_list a and mb = Mono.of_list b in
      let ra = MRef.of_list a in
      let x = Mono.var "x" in
      Mono.equal (Mono.mul ma x) (Mono.mul mb x) = (ra = MRef.of_list b)
      && List.for_all
           (fun v -> Mono.degree_of v ma = MRef.exp ra v)
           [ "x"; "y"; "z"; "w"; "u"; "v"; "never_a_variable" ])

(* The merge loops are top-level functions, so they allocate no closure:
   10 000 calls each of [compare] (equal degree, not physically equal),
   [divides], [equal] (structurally equal, physically distinct) and
   [mentions_id] stay below 1 000 minor words in all. *)
let test_mono_no_alloc () =
  let a = Mono.of_list [ ("x", 2); ("y", 1); ("z", 1) ]
  and b = Mono.of_list [ ("x", 1); ("y", 2); ("z", 1) ] in
  let xy = Mono.of_list [ ("x", 1); ("y", 1) ] in
  let e1 = Mono.mul xy (Mono.var "z") and e2 = Mono.mul xy (Mono.var "z") in
  let z = Symtab.intern "z" in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Mono.compare a b));
    ignore (Sys.opaque_identity (Mono.divides xy a));
    ignore (Sys.opaque_identity (Mono.equal e1 e2));
    ignore (Sys.opaque_identity (Mono.mentions_id z a))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "compare sees unequal" true (Mono.compare a b > 0);
  Alcotest.(check bool) "equal sees equal" true (e1 != e2 && Mono.equal e1 e2);
  if words >= 1000. then
    Alcotest.failf "40 000 monomial calls allocated %.0f minor words" words

let gen_raw_terms =
  QCheck.Gen.(list_size (int_range 0 10) (pair (int_range (-5) 5) gen_bindings))

let arb_raw_terms =
  QCheck.make gen_raw_terms ~print:(fun raw ->
      String.concat " + "
        (List.map
           (fun (c, l) -> string_of_int c ^ "*" ^ print_bindings l)
           raw))

let prop_of_terms_ref =
  prop "of_terms combines like reference" arb_raw_terms (fun raw ->
      let poly =
        P.of_terms (List.map (fun (c, l) -> (Z.of_int c, Mono.of_list l)) raw)
      in
      let expected =
        List.fold_left
          (fun acc (c, l) ->
            let key = MRef.of_list l in
            let prev = Option.value ~default:0 (List.assoc_opt key acc) in
            (key, prev + c) :: List.remove_assoc key acc)
          [] raw
        |> List.filter (fun (_, c) -> c <> 0)
        |> List.map (fun (k, c) -> (c, k))
        |> List.sort (fun (_, m1) (_, m2) -> MRef.compare m2 m1)
      in
      List.map (fun (c, m) -> (Z.to_int_exn c, Mono.to_list m)) (P.terms poly)
      = expected)

let gen_names =
  QCheck.Gen.(
    list_size (int_range 1 10)
      (string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 6)))

let arb_names =
  QCheck.make gen_names ~print:(fun l -> String.concat " " l)

let prop_symtab_order =
  prop "symtab injective and order-preserving" arb_names (fun names ->
      let ids = List.map Symtab.intern names in
      let ranks = Symtab.ranks () in
      List.for_all2
        (fun v id -> Symtab.intern v = id && Symtab.name_of id = v)
        names ids
      && List.for_all2
           (fun v id ->
             List.for_all2
               (fun v' id' ->
                 sign (Stdlib.compare ranks.(id) ranks.(id'))
                 = sign (String.compare v v'))
               names ids)
           names ids)

(* polynomial tests ----------------------------------------------------------- *)

let test_construction () =
  check_p "zero const" P.zero (P.const Z.zero);
  check_p "of_terms combines" (p "2*x")
    (P.of_terms [ (Z.one, Mono.var "x"); (Z.one, Mono.var "x") ]);
  check_p "of_terms cancels" P.zero
    (P.of_terms [ (Z.one, Mono.var "x"); (Z.of_int (-1), Mono.var "x") ]);
  Alcotest.(check int) "num_terms" 3 (P.num_terms (p "x^2 + x + 1"))

let test_arith_examples () =
  check_p "(x+y)^2" (p "x^2 + 2*x*y + y^2") (P.pow (p "x + y") 2);
  check_p "(x+y)*(x-y)" (p "x^2 - y^2") (P.mul (p "x + y") (p "x - y"));
  check_p "sub self" P.zero (P.sub (p "3*x*y - 7") (p "3*x*y - 7"))

let test_degree () =
  Alcotest.(check int) "total degree" 4 (P.degree (p "x^2*y^2 + x^3"));
  Alcotest.(check int) "zero degree" (-1) (P.degree P.zero);
  Alcotest.(check int) "degree_in x" 2 (P.degree_in "x" (p "x^2*y^2 + y^3"));
  Alcotest.(check int) "degree_in absent" 0 (P.degree_in "q" (p "x^2"));
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (P.vars (p "x^2*y + y - 4"))

let test_leading () =
  let c, m = P.leading (p "3*x*y^2 - 5*x^3 + 2") in
  Alcotest.(check int) "leading coeff" (-5) (Z.to_int_exn c);
  Alcotest.check mono "leading mono" (Mono.var ~exp:3 "x") m

let test_div_rem () =
  let check_invariant a b =
    let q, r = P.div_rem a b in
    check_p (P.to_string a ^ " / " ^ P.to_string b) a (P.add (P.mul q b) r)
  in
  check_invariant (p "x^2 + 2*x*y + y^2") (p "x + y");
  check_invariant (p "x^3 - 1") (p "x - 1");
  check_invariant (p "x^2 + y") (p "z + 1");
  check_invariant (p "5*x^2 + 3") (p "2*x");
  (* over Z the invariant does not fix (q, r): 3x = 1*(2x + 1) + (x - 1)
     too, but the leading term 3x is irreducible by 2x, so it stays *)
  let q, r = P.div_rem (p "3*x") (p "2*x + 1") in
  check_p "3x / (2x + 1) quotient" P.zero q;
  check_p "3x / (2x + 1) remainder" (p "3*x") r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (P.div_rem (p "x") P.zero))

let test_div_exact () =
  (match P.div_exact (p "x^2 + 2*x*y + y^2") (p "x + y") with
   | Some q -> check_p "(x+y)^2/(x+y)" (p "x + y") q
   | None -> Alcotest.fail "expected exact");
  (match P.div_exact (p "4*x*y^2 + 12*y^3") (p "x + 3*y") with
   | Some q -> check_p "4y^2" (p "4*y^2") q
   | None -> Alcotest.fail "expected exact");
  Alcotest.(check bool) "inexact" true (P.div_exact (p "x^2 + 1") (p "x + 1") = None)

let test_content_primitive () =
  Alcotest.(check int) "content" 6 (Z.to_int_exn (P.content (p "6*x + 12*y - 18")));
  check_p "primitive part" (p "x + 2*y - 3") (P.primitive_part (p "6*x + 12*y - 18"));
  check_p "primitive of negative leading" (p "x - 2")
    (P.primitive_part (p "4 - 2*x"));
  check_p "primitive of negative unit content" (p "x + y")
    (P.primitive_part (p "-x - y"));
  check_p "primitive of linear" (p "x + 2*y") (P.primitive_part (p "3*x + 6*y"));
  check_p "primitive of zero" P.zero (P.primitive_part P.zero);
  Alcotest.(check int) "content zero" 0 (Z.to_int_exn (P.content P.zero))

let test_derivative () =
  check_p "d/dx" (p "2*x*y + 3*x^2") (P.derivative "x" (p "x^2*y + x^3 + y^2"));
  check_p "d/dz absent" P.zero (P.derivative "z" (p "x^2 + y"))

let test_subst () =
  check_p "x := y+1 in x^2"
    (p "y^2 + 2*y + 1")
    (P.subst "x" (p "y + 1") (p "x^2"))

let test_coeffs_in () =
  let cs = P.coeffs_in "x" (p "3*x^2*y + x^2 + 5*x - y + 2") in
  Alcotest.(check int) "three degrees" 3 (List.length cs);
  (match List.assoc_opt 2 cs with
   | Some c -> check_p "x^2 coefficient" (p "3*y + 1") c
   | None -> Alcotest.fail "missing degree 2");
  check_p "roundtrip" (p "3*x^2*y + x^2 + 5*x - y + 2")
    (P.of_coeffs_in "x" cs)

let test_to_string () =
  Alcotest.(check string) "pretty" "3*x^2*y - x + 7" (P.to_string (p "3*x^2*y - x + 7"));
  Alcotest.(check string) "leading minus" "-x + 1" (P.to_string (p "1 - x"));
  Alcotest.(check string) "zero" "0" (P.to_string P.zero)

(* parser tests --------------------------------------------------------------- *)


(* equality walks both term lists; a physically equal value short-cuts *)
let test_equal () =
  let a = p "3*x^2*y - 2*y + 7" in
  Alcotest.(check bool) "same value" true (P.equal a a);
  Alcotest.(check bool) "equal copies" true (P.equal a (p "7 - 2*y + 3*x^2*y"));
  Alcotest.(check bool) "shorter" false (P.equal a (p "3*x^2*y - 2*y"));
  Alcotest.(check bool) "longer" false (P.equal (p "3*x^2*y - 2*y") a);
  Alcotest.(check bool) "zero" false (P.equal P.zero a);
  Alcotest.(check bool) "last coefficient" false
    (P.equal a (p "3*x^2*y - 2*y + 8"));
  Alcotest.(check bool) "last monomial" false
    (P.equal a (p "3*x^2*y - 2*y + 7*z"))

(* [Hashtbl] picks buckets from a hash's low bits, so those must spread
   over polynomials that differ in small coefficients and exponents *)
let test_hash_spread () =
  Alcotest.(check bool) "5*y^2 and 36*y" true
    (P.hash (p "5*y^2") <> P.hash (p "36*y"));
  let exponents =
    List.concat_map
      (fun i -> List.map (fun j -> (i, j)) [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
    |> List.filter (fun (i, j) -> i + j > 0)
  in
  let coeffs = List.filter (( <> ) 0) (List.init 41 (fun c -> c - 20)) in
  let family =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun (i, j) ->
            List.init 11 (fun k ->
                P.add
                  (P.term (Z.of_int c) (Mono.of_list [ ("x", i); ("y", j) ]))
                  (P.of_int (k - 5))))
          exponents)
      coeffs
  in
  Alcotest.(check int) "family size" 6600 (List.length family);
  let low = Hashtbl.create 4096 in
  List.iter (fun q -> Hashtbl.replace low (P.hash q land 4095) ()) family;
  let distinct = Hashtbl.length low in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct low-12-bit hashes >= 3000" distinct)
    true (distinct >= 3000)
let test_parse_examples () =
  check_p "paper F"
    (P.add_list
       [ P.mul_scalar (Z.of_int 4) (P.mul (P.pow (P.var "x") 2) (P.pow (P.var "y") 2));
         P.mul_scalar (Z.of_int (-4)) (P.mul (P.pow (P.var "x") 2) (P.var "y"));
         P.mul_scalar (Z.of_int (-4)) (P.mul (P.var "x") (P.pow (P.var "y") 2));
         P.mul_scalar (Z.of_int 4) (P.mul (P.var "x") (P.var "y"));
         P.mul_scalar (Z.of_int 5) (P.mul (P.pow (P.var "z") 2) (P.var "x"));
         P.mul_scalar (Z.of_int (-5)) (P.mul (P.var "z") (P.var "x")) ])
    (p "4*x^2*y^2 - 4*x^2*y - 4*x*y^2 + 4*x*y + 5*z^2*x - 5*z*x");
  check_p "parens and pow" (p "x^2 + 6*x*y + 9*y^2") (p "(x + 3*y)^2");
  check_p "unary minus" (p "0 - x - y") (p "-x - y");
  check_p "nested" (p "2*x^2 + 2*x*y") (p "2*x*(x + y)")

let test_parse_errors () =
  let bad s =
    match Parse.poly_exn s with
    | exception Parse.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for " ^ s)
  in
  bad "x +";
  bad "(x";
  bad "x ^ y";
  bad "x $ y";
  bad "";
  bad "x x"

let test_parse_system () =
  let polys = Parse.system_exn "x + y; x - y\n # comment line\n z^2 # trailing" in
  Alcotest.(check int) "three polys" 3 (List.length polys);
  check_p "third" (p "z^2") (List.nth polys 2)

let test_parse_result_api () =
  (* the non-_exn entry points report failure as a value, never an exception *)
  (match Parse.poly "x + y" with
   | Ok q -> check_p "ok poly" (p "x + y") q
   | Error (`Parse msg) -> Alcotest.fail msg);
  (match Parse.poly "x +" with
   | Error (`Parse _) -> ()
   | Ok _ -> Alcotest.fail "expected Error for truncated input");
  match Parse.system "x; y^2" with
  | Ok polys -> Alcotest.(check int) "two polys" 2 (List.length polys)
  | Error (`Parse msg) -> Alcotest.fail msg

(* properties ------------------------------------------------------------------ *)

let prop_eval_hom_add =
  prop "eval is additive" arb_two_polys_env (fun (a, b, env) ->
      let e = env_of_list env in
      Z.equal (P.eval e (P.add a b)) (Z.add (P.eval e a) (P.eval e b)))

let prop_eval_hom_mul =
  prop "eval is multiplicative" arb_two_polys_env (fun (a, b, env) ->
      let e = env_of_list env in
      Z.equal (P.eval e (P.mul a b)) (Z.mul (P.eval e a) (P.eval e b)))

let prop_ring_axioms =
  prop "ring axioms" QCheck.(triple arb_poly arb_poly arb_poly)
    (fun (a, b, c) ->
      P.equal (P.add a b) (P.add b a)
      && P.equal (P.mul a b) (P.mul b a)
      && P.equal (P.mul a (P.add b c)) (P.add (P.mul a b) (P.mul a c))
      && P.equal (P.mul (P.mul a b) c) (P.mul a (P.mul b c)))

let prop_div_rem_invariant =
  prop "a = q*b + r" QCheck.(pair arb_poly arb_poly) (fun (a, b) ->
      QCheck.assume (not (P.is_zero b));
      let q, r = P.div_rem a b in
      P.equal a (P.add (P.mul q b) r))

let prop_div_exact_product =
  prop "div_exact recovers factor" QCheck.(pair arb_poly arb_poly)
    (fun (a, b) ->
      QCheck.assume (not (P.is_zero b));
      match P.div_exact (P.mul a b) b with
      | Some q -> P.equal q a
      | None -> false)

let prop_parse_roundtrip =
  prop "to_string/parse roundtrip" arb_poly (fun a ->
      P.equal a (Parse.poly_exn (P.to_string a)))

let prop_primitive_content =
  prop "p = content * primitive (up to sign)" arb_poly (fun a ->
      QCheck.assume (not (P.is_zero a));
      let c = P.content a in
      let pp_ = P.primitive_part a in
      P.equal a (P.mul_scalar c pp_)
      || P.equal a (P.mul_scalar (Z.neg c) pp_))

let prop_derivative_linear =
  prop "derivative is linear" QCheck.(pair arb_poly arb_poly) (fun (a, b) ->
      P.equal
        (P.derivative "x" (P.add a b))
        (P.add (P.derivative "x" a) (P.derivative "x" b)))

let prop_derivative_product =
  prop "Leibniz rule" QCheck.(pair arb_poly arb_poly) (fun (a, b) ->
      P.equal
        (P.derivative "x" (P.mul a b))
        (P.add (P.mul (P.derivative "x" a) b) (P.mul a (P.derivative "x" b))))

let prop_coeffs_roundtrip =
  prop "coeffs_in roundtrip" arb_poly (fun a ->
      P.equal a (P.of_coeffs_in "x" (P.coeffs_in "x" a)))

let prop_pp_parses_back =
  prop "to_string output parses back" arb_poly (fun a ->
      P.equal a (Parse.poly_exn (P.to_string a)))

let prop_div_rem_remainder_irreducible =
  prop "no remainder term is reducible by the divisor's leading term"
    QCheck.(pair arb_poly arb_poly)
    (fun (a, b) ->
      QCheck.assume (not (P.is_zero b));
      let _, r = P.div_rem a b in
      let cb, mb = P.leading b in
      List.for_all
        (fun (cr, mr) ->
          not (Mono.divides mb mr && Z.divides cb cr))
        (P.terms r))

(* the division of the earlier design, kept as the reference: reduce the
   leading term with a full product and subtraction while it is reducible,
   otherwise move it to the remainder and divide the rest *)
let reference_div_rem a b =
  let cb, mb = P.leading b in
  let rec go q r =
    match P.terms r with
    | [] -> (q, r)
    | (cr, mr) :: rest ->
      (match Mono.div mr mb with
       | Some mq when Z.divides cb cr ->
         let cq = Z.divexact cr cb in
         go (P.add q (P.term cq mq)) (P.sub r (P.mul_term cq mq b))
       | Some _ | None ->
         let qrest, rrest = go q (P.of_sorted_terms rest) in
         (qrest, P.of_sorted_terms ((cr, mr) :: P.terms rrest)))
  in
  go P.zero a

(* linear divisors, often with a non-unit leading coefficient *)
let gen_linear =
  let open QCheck.Gen in
  map2
    (fun cs c0 ->
      let d =
        P.of_terms
          ((Z.of_int c0, Mono.one)
          :: List.map2
               (fun c v -> (Z.of_int c, Mono.var v))
               cs [ "x"; "y"; "z"; "w" ])
      in
      if P.degree d < 1 then P.add d (P.var "x") else d)
    (list_repeat 4 (int_range (-4) 4))
    (int_range (-4) 4)

(* a dividend q*d + r mixes terms the divisor reduces with terms it
   cannot *)
let arb_division =
  let open QCheck.Gen in
  let divisor = frequency [ (3, gen_linear); (1, gen_poly) ] in
  QCheck.make
    ~print:(fun (a, d) -> P.to_string a ^ " / " ^ P.to_string d)
    ( divisor >>= fun d ->
      frequency
        [ (3, map2 (fun q r -> (P.add (P.mul q d) r, d)) gen_poly gen_poly);
          (1, map (fun a -> (a, d)) gen_poly) ] )

let prop_div_rem_reference =
  prop "div_rem equals the reference division" ~count:400 arb_division
    (fun (a, d) ->
      QCheck.assume (not (P.is_zero d));
      let q, r = P.div_rem a d and q', r' = reference_div_rem a d in
      P.equal q q' && P.equal r r')

let prop_shift_unshift =
  prop "shift by c then -c is identity" arb_poly (fun a ->
      let shift c = P.subst "x" (P.add (P.var "x") (P.const (Z.of_int c))) in
      P.equal a (shift (-3) (shift 3 a)))

let prop_pow_adds_degrees =
  prop "degree of p^2 = 2 * degree p" arb_poly (fun a ->
      QCheck.assume (not (P.is_zero a));
      P.degree (P.pow a 2) = 2 * P.degree a)

let prop_coeffs_in_any_var =
  prop "coeffs_in roundtrip in y" arb_poly (fun a ->
      P.equal a (P.of_coeffs_in "y" (P.coeffs_in "y" a)))

let prop_subst_eval_commute =
  prop "subst commutes with eval" arb_two_polys_env (fun (a, q, env) ->
      let e = env_of_list env in
      let direct = P.eval e (P.subst "x" q a) in
      let e' v = if String.equal v "x" then P.eval e q else e v in
      Z.equal direct (P.eval e' a))

let () =
  Alcotest.run "poly"
    [
      ( "monomial",
        [
          Alcotest.test_case "of_list" `Quick test_mono_of_list;
          Alcotest.test_case "order" `Quick test_mono_order;
          Alcotest.test_case "div" `Quick test_mono_div;
          Alcotest.test_case "gcd lcm" `Quick test_mono_gcd_lcm;
          Alcotest.test_case "of_list 10k bindings" `Quick
            test_mono_of_list_large;
          Alcotest.test_case "monomial tests allocate nothing" `Quick
            test_mono_no_alloc;
        ] );
      ( "interning",
        [
          prop_mono_of_list_ref;
          prop_mono_compare_ref;
          prop_mono_mul_gcd_ref;
          prop_mono_div_ref;
          prop_mono_lcm_divides_ref;
          prop_mono_equal_degree_of_ref;
          prop_of_terms_ref;
          prop_symtab_order;
        ] );
      ( "poly",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "arith examples" `Quick test_arith_examples;
          Alcotest.test_case "degree" `Quick test_degree;
          Alcotest.test_case "leading" `Quick test_leading;
          Alcotest.test_case "div_rem" `Quick test_div_rem;
          Alcotest.test_case "div_exact" `Quick test_div_exact;
          Alcotest.test_case "content/primitive" `Quick test_content_primitive;
          Alcotest.test_case "derivative" `Quick test_derivative;
          Alcotest.test_case "subst" `Quick test_subst;
          Alcotest.test_case "coeffs_in" `Quick test_coeffs_in;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "hash spreads over low bits" `Quick
            test_hash_spread;
        ] );
      ( "parse",
        [
          Alcotest.test_case "examples" `Quick test_parse_examples;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "system" `Quick test_parse_system;
          Alcotest.test_case "result api" `Quick test_parse_result_api;
        ] );
      ( "properties",
        [
          prop_eval_hom_add;
          prop_eval_hom_mul;
          prop_ring_axioms;
          prop_div_rem_invariant;
          prop_div_exact_product;
          prop_parse_roundtrip;
          prop_primitive_content;
          prop_derivative_linear;
          prop_derivative_product;
          prop_coeffs_roundtrip;
          prop_pp_parses_back;
          prop_div_rem_remainder_irreducible;
          prop_shift_unshift;
          prop_pow_adds_degrees;
          prop_coeffs_in_any_var;
          prop_subst_eval_commute;
          prop_div_rem_reference;
        ] );
    ]
