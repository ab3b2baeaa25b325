module Z = Polysynth_zint.Zint

let z = Show.zint

let check_z = Alcotest.check z

(* the same value built by limb code alone: [huge] and [huge + r] are never
   immediates, so both the sum and the difference run the limb code *)
let limb_path r =
  let huge = Z.pow2 200 in
  Z.sub (Z.add huge r) huge

(* [r] has the one canonical layout: it equals and hashes like the value
   reparsed from its decimal form and like the value built by limb code,
   also under polymorphic compare and hash *)
let canonical r =
  List.for_all
    (fun r' ->
      Z.equal r r' && Z.hash r = Z.hash r'
      && Stdlib.compare r r' = 0
      && Hashtbl.hash r = Hashtbl.hash r')
    [ Z.of_string (Z.to_string r); limb_path r ]

(* qcheck generators ------------------------------------------------------- *)

let small_int_gen = QCheck.Gen.int_range (-1_000_000) 1_000_000

let zint_of_parts =
  (* build a bignum from several native ints so values routinely exceed a
     single limb and the native range *)
  QCheck.Gen.map
    (fun (a, b, c) ->
      Z.add (Z.mul (Z.of_int a) (Z.mul (Z.of_int b) (Z.of_int b))) (Z.of_int c))
    QCheck.Gen.(triple small_int_gen small_int_gen small_int_gen)

let arb_zint =
  QCheck.make zint_of_parts ~print:Z.to_string

let arb_small = QCheck.make small_int_gen ~print:string_of_int

let prop name ?(count = 500) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* unit tests --------------------------------------------------------------- *)

let test_constants () =
  check_z "zero" Z.zero (Z.of_int 0);
  check_z "one" Z.one (Z.of_int 1);
  check_z "two" Z.two (Z.of_int 2);
  check_z "minus_one" Z.minus_one (Z.of_int (-1));
  Alcotest.(check bool) "is_zero" true (Z.is_zero Z.zero);
  Alcotest.(check bool) "is_one" true (Z.is_one Z.one);
  Alcotest.(check bool) "one not zero" false (Z.is_zero Z.one)

let test_of_int_extremes () =
  Alcotest.(check int) "max_int" max_int (Z.to_int_exn (Z.of_int max_int));
  Alcotest.(check int) "min_int" min_int (Z.to_int_exn (Z.of_int min_int));
  Alcotest.(check int) "-1" (-1) (Z.to_int_exn (Z.of_int (-1)))

let test_string_roundtrip () =
  let cases =
    [ "0"; "1"; "-1"; "123456789"; "-987654321";
      "123456789012345678901234567890";
      "-340282366920938463463374607431768211456" ]
  in
  List.iter
    (fun s -> Alcotest.(check string) s s (Z.to_string (Z.of_string s)))
    cases

let test_of_string_invalid () =
  let invalid s =
    Alcotest.check_raises s (Invalid_argument "Zint.of_string: malformed literal")
      (fun () -> ignore (Z.of_string s))
  in
  invalid "12a3";
  invalid "-";
  invalid "+"

let test_of_string_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Zint.of_string: empty string") (fun () ->
      ignore (Z.of_string ""))

let test_big_arithmetic () =
  let a = Z.of_string "123456789012345678901234567890" in
  let b = Z.of_string "98765432109876543210" in
  check_z "a+b"
    (Z.of_string "123456789111111111011111111100")
    (Z.add a b);
  check_z "a-b"
    (Z.of_string "123456788913580246791358024680")
    (Z.sub a b);
  check_z "a*b"
    (Z.of_string "12193263113702179522496570642237463801111263526900")
    (Z.mul a b)

let test_factorial () =
  check_z "0!" Z.one (Z.factorial 0);
  check_z "5!" (Z.of_int 120) (Z.factorial 5);
  check_z "20!" (Z.of_string "2432902008176640000") (Z.factorial 20);
  check_z "25!" (Z.of_string "15511210043330985984000000") (Z.factorial 25);
  Alcotest.check_raises "negative"
    (Invalid_argument "Zint.factorial: negative input") (fun () ->
      ignore (Z.factorial (-1)))

let test_pow () =
  check_z "2^0" Z.one (Z.pow Z.two 0);
  check_z "2^10" (Z.of_int 1024) (Z.pow Z.two 10);
  check_z "(-3)^3" (Z.of_int (-27)) (Z.pow (Z.of_int (-3)) 3);
  check_z "pow2 64" (Z.of_string "18446744073709551616") (Z.pow2 64);
  for m = 0 to 130 do
    let p = Z.pow2 m in
    Alcotest.(check bool) (Printf.sprintf "2^%d canonical" m) true (canonical p);
    check_z (Printf.sprintf "2^%d = pow 2" m) (Z.pow Z.two m) p;
    Alcotest.(check int) (Printf.sprintf "bits 2^%d" m) (m + 1) (Z.num_bits p)
  done;
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Zint.pow: negative exponent") (fun () ->
      ignore (Z.pow Z.two (-1)))

let test_val2 () =
  Alcotest.(check int) "48" 4 (Z.val2 (Z.of_int 48));
  Alcotest.(check int) "1" 0 (Z.val2 Z.one);
  Alcotest.(check int) "2^40" 40 (Z.val2 (Z.pow2 40));
  Alcotest.(check int) "v2(20!)" 18 (Z.val2 (Z.factorial 20));
  Alcotest.check_raises "zero" (Invalid_argument "Zint.val2: zero") (fun () ->
      ignore (Z.val2 Z.zero))

let test_divmod_signs () =
  (* truncated division must agree with native / and mod *)
  let pairs = [ (7, 3); (-7, 3); (7, -3); (-7, -3); (6, 3); (0, 5) ] in
  List.iter
    (fun (a, b) ->
      let q, r = Z.divmod (Z.of_int a) (Z.of_int b) in
      Alcotest.(check int) (Printf.sprintf "q %d/%d" a b) (a / b) (Z.to_int_exn q);
      Alcotest.(check int) (Printf.sprintf "r %d/%d" a b) (a mod b) (Z.to_int_exn r))
    pairs;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Z.divmod Z.one Z.zero))

let test_ediv_rem () =
  let cases = [ (7, 3); (-7, 3); (7, -3); (-7, -3) ] in
  List.iter
    (fun (a, b) ->
      let q, r = Z.ediv_rem (Z.of_int a) (Z.of_int b) in
      Alcotest.(check bool)
        (Printf.sprintf "0<=r<|b| for %d %d" a b)
        true
        (Z.sign r >= 0 && Z.compare r (Z.abs (Z.of_int b)) < 0);
      check_z
        (Printf.sprintf "a=qb+r for %d %d" a b)
        (Z.of_int a)
        (Z.add (Z.mul q (Z.of_int b)) r))
    cases

let test_erem_pow2 () =
  Alcotest.(check int) "17 mod 16" 1 (Z.to_int_exn (Z.erem_pow2 (Z.of_int 17) 4));
  Alcotest.(check int) "-1 mod 16" 15 (Z.to_int_exn (Z.erem_pow2 (Z.of_int (-1)) 4));
  Alcotest.(check int) "0 mod 8" 0 (Z.to_int_exn (Z.erem_pow2 Z.zero 3));
  (* m beyond the native mask and z beyond two limbs take the limb path *)
  let check_erem z m =
    let r = Z.erem_pow2 z m in
    let r' = snd (Z.ediv_rem z (Z.pow2 m)) in
    Alcotest.(check bool)
      (Printf.sprintf "%s mod 2^%d" (Z.to_string z) m)
      true
      (Z.equal r r' && canonical r)
  in
  List.iter
    (fun z -> List.iter (check_erem z) [ 0; 1; 30; 59; 60; 61; 62; 63; 64; 100 ])
    [ Z.of_int (-1); Z.of_int max_int; Z.of_int min_int; Z.neg (Z.pow2 60);
      Z.sub (Z.pow2 61) Z.one; Z.neg (Z.pow2 90); Z.add (Z.pow2 90) Z.one ]

let test_gcd_lcm () =
  check_z "gcd 24 30" (Z.of_int 6) (Z.gcd (Z.of_int 24) (Z.of_int 30));
  check_z "gcd -24 30" (Z.of_int 6) (Z.gcd (Z.of_int (-24)) (Z.of_int 30));
  check_z "gcd 0 0" Z.zero (Z.gcd Z.zero Z.zero);
  check_z "gcd 0 7" (Z.of_int 7) (Z.gcd Z.zero (Z.of_int 7));
  check_z "lcm 4 6" (Z.of_int 12) (Z.lcm (Z.of_int 4) (Z.of_int 6));
  check_z "lcm 0 6" Z.zero (Z.lcm Z.zero (Z.of_int 6))

(* quotients whose first estimate of a limb passes the [qhat * v[n-2]]
   test and is still one too large, so the multiply-and-subtract goes
   negative and the divisor is added back *)
let test_divmod_add_back () =
  List.iter
    (fun (a, b, q, r) ->
      let a = Z.of_string a and b = Z.of_string b in
      let q = Z.of_string q and r = Z.of_string r in
      List.iter
        (fun (a, q, r) ->
          let q', r' = Z.divmod a b in
          check_z (Z.to_string a ^ " / b") q q';
          check_z (Z.to_string a ^ " mod b") r r')
        [ (a, q, r); (Z.neg a, Z.neg q, Z.neg r) ])
    [
      ( "1645504555788710502716328017569577356783170591375003920434724866",
        "1329227994546975835924269793521172482",
        "1237940039285380273825382400",
        "664613997892457938757746540427608066" );
      ( "766247771146568276196767454228148429266443724323291136",
        "618970019066229386756751359",
        "1237940041591223284112818175",
        "374482859081734911072141311" );
      ( "664613998511427954941672165472318838",
        "1237940038132458770829148160",
        "536870912",
        "1237940037844228396629996918" );
    ]

let test_divexact () =
  check_z "84/7" (Z.of_int 12) (Z.divexact (Z.of_int 84) (Z.of_int 7));
  Alcotest.check_raises "inexact"
    (Invalid_argument "Zint.divexact: inexact division") (fun () ->
      ignore (Z.divexact (Z.of_int 5) (Z.of_int 2)))

let test_divides () =
  Alcotest.(check bool) "3|12" true (Z.divides (Z.of_int 3) (Z.of_int 12));
  Alcotest.(check bool) "5|12" false (Z.divides (Z.of_int 5) (Z.of_int 12));
  Alcotest.(check bool) "0|0" true (Z.divides Z.zero Z.zero);
  Alcotest.(check bool) "0|3" false (Z.divides Z.zero (Z.of_int 3))

let test_num_bits () =
  Alcotest.(check int) "0" 0 (Z.num_bits Z.zero);
  Alcotest.(check int) "1" 1 (Z.num_bits Z.one);
  Alcotest.(check int) "255" 8 (Z.num_bits (Z.of_int 255));
  Alcotest.(check int) "256" 9 (Z.num_bits (Z.of_int 256));
  Alcotest.(check int) "2^100" 101 (Z.num_bits (Z.pow2 100))

let test_to_int_opt_bounds () =
  Alcotest.(check bool) "2^61 fits" true (Z.to_int_opt (Z.pow2 61) <> None);
  Alcotest.(check bool) "2^63 too big" true (Z.to_int_opt (Z.pow2 63) = None);
  let check name expect z =
    Alcotest.(check (option int)) name expect (Z.to_int_opt z)
  in
  check "max_int" (Some max_int) (Z.of_int max_int);
  check "min_int" (Some min_int) (Z.of_int min_int);
  check "max_int + 1" None (Z.add (Z.of_int max_int) Z.one);
  check "min_int - 1" None (Z.sub (Z.of_int min_int) Z.one);
  check "-(min_int)" None (Z.neg (Z.of_int min_int));
  check "2^60" (Some (1 lsl 60)) (Z.pow2 60);
  check "-2^61" (Some (-(1 lsl 61))) (Z.neg (Z.pow2 61))

(* properties --------------------------------------------------------------- *)

let prop_add_commutes =
  prop "add commutes" QCheck.(pair arb_zint arb_zint) (fun (a, b) ->
      Z.equal (Z.add a b) (Z.add b a))

let prop_add_assoc =
  prop "add associates" QCheck.(triple arb_zint arb_zint arb_zint)
    (fun (a, b, c) -> Z.equal (Z.add (Z.add a b) c) (Z.add a (Z.add b c)))

let prop_mul_commutes =
  prop "mul commutes" QCheck.(pair arb_zint arb_zint) (fun (a, b) ->
      Z.equal (Z.mul a b) (Z.mul b a))

let prop_mul_assoc =
  prop "mul associates" QCheck.(triple arb_zint arb_zint arb_zint)
    (fun (a, b, c) -> Z.equal (Z.mul (Z.mul a b) c) (Z.mul a (Z.mul b c)))

let prop_distrib =
  prop "mul distributes over add" QCheck.(triple arb_zint arb_zint arb_zint)
    (fun (a, b, c) ->
      Z.equal (Z.mul a (Z.add b c)) (Z.add (Z.mul a b) (Z.mul a c)))

let prop_sub_inverse =
  prop "a - b + b = a" QCheck.(pair arb_zint arb_zint) (fun (a, b) ->
      Z.equal a (Z.add (Z.sub a b) b))

let prop_matches_native =
  prop "agrees with native int ops" QCheck.(pair arb_small arb_small)
    (fun (a, b) ->
      let za = Z.of_int a and zb = Z.of_int b in
      Z.to_int_exn (Z.add za zb) = a + b
      && Z.to_int_exn (Z.sub za zb) = a - b
      && Z.to_int_exn (Z.mul za zb) = a * b
      && (b = 0 || Z.to_int_exn (Z.div za zb) = a / b)
      && (b = 0 || Z.to_int_exn (Z.rem za zb) = a mod b))

let prop_divmod_invariant =
  prop "a = q*b + r with |r| < |b|" QCheck.(pair arb_zint arb_zint)
    (fun (a, b) ->
      QCheck.assume (not (Z.is_zero b));
      let q, r = Z.divmod a b in
      Z.equal a (Z.add (Z.mul q b) r) && Z.compare (Z.abs r) (Z.abs b) < 0)

let prop_string_roundtrip =
  prop "to_string/of_string roundtrip" arb_zint (fun a ->
      Z.equal a (Z.of_string (Z.to_string a)))

let prop_gcd_divides =
  prop "gcd divides both arguments" QCheck.(pair arb_zint arb_zint)
    (fun (a, b) ->
      let g = Z.gcd a b in
      if Z.is_zero g then Z.is_zero a && Z.is_zero b
      else Z.divides g a && Z.divides g b)

let prop_compare_total_order =
  prop "compare consistent with sub sign" QCheck.(pair arb_zint arb_zint)
    (fun (a, b) ->
      let c = Z.compare a b in
      let s = Z.sign (Z.sub a b) in
      (c > 0) = (s > 0) && (c < 0) = (s < 0) && (c = 0) = (s = 0))

let prop_hash_consistent =
  prop "equal values hash equally" arb_zint (fun a ->
      Z.hash a = Z.hash (Z.sub (Z.add a Z.one) Z.one))

let prop_num_bits_bound =
  prop "2^(bits-1) <= |a| < 2^bits" arb_zint (fun a ->
      QCheck.assume (not (Z.is_zero a));
      let n = Z.num_bits a in
      Z.compare (Z.abs a) (Z.pow2 n) < 0
      && Z.compare (Z.pow2 (n - 1)) (Z.abs a) <= 0)

(* native-int boundaries ------------------------------------------------------ *)

(* Operands clustered at the limb boundaries (2^30, 2^60), where sums and
   products leave the immediate range (2^61, and 2^31 for products) and
   at the ends of the native range. *)
let boundary_int_gen =
  let open QCheck.Gen in
  let near =
    oneofl [ 29; 30; 31; 59; 60; 61 ] >>= fun k ->
    map2 (fun s d -> s * ((1 lsl k) + d)) (oneofl [ 1; -1 ]) (int_range (-3) 3)
  in
  frequency
    [
      (1, oneofl [ 0; 1; -1 ]);
      (6, near);
      (1, map (fun d -> max_int - d) (int_range 0 3));
      (1, map (fun d -> min_int + d) (int_range 0 3));
      (2, small_int_gen);
      (2, int);
    ]

let arb_boundary = QCheck.make boundary_int_gen ~print:string_of_int

(* values of magnitude >= 2^62, beyond every immediate *)
let arb_big =
  QCheck.make ~print:Z.to_string
    QCheck.Gen.(
      map3
        (fun neg k d ->
          let b = Z.add (Z.pow2 k) (Z.abs (Z.of_int d)) in
          if neg then Z.neg b else b)
        bool (int_range 62 130) boundary_int_gen)

let is_native n r = Z.to_int_opt r = Some n && canonical r

let add_fits a b =
  let s = a + b in
  not ((a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0))

let sub_fits a b =
  let d = a - b in
  not ((a >= 0 && b < 0 && d < 0) || (a < 0 && b >= 0 && d >= 0))

let mul_fits a b =
  a = 0 || ((a * b) / a = b && not (a = -1 && b = min_int))

let div_fits a b = b <> 0 && not (a = min_int && b = -1)

let native_ediv_rem a b =
  let q = a / b and r = a mod b in
  if r >= 0 then (q, r) else if b > 0 then (q - 1, r + b) else (q + 1, r - b)

let rec native_gcd a b = if b = 0 then a else native_gcd b (a mod b)

let prop_native_oracle =
  prop "add/sub/mul/divmod/ediv_rem/gcd agree with native ints" ~count:3000
    QCheck.(pair arb_boundary arb_boundary)
    (fun (a, b) ->
      let za = Z.of_int a and zb = Z.of_int b in
      is_native a za && is_native b zb
      && ((not (add_fits a b)) || is_native (a + b) (Z.add za zb))
      && ((not (sub_fits a b)) || is_native (a - b) (Z.sub za zb))
      && ((not (mul_fits a b)) || is_native (a * b) (Z.mul za zb))
      && ((not (div_fits a b))
         ||
         let q, r = Z.divmod za zb and eq, er = Z.ediv_rem za zb in
         let nq, nr = native_ediv_rem a b in
         is_native (a / b) q && is_native (a mod b) r
         && is_native (a / b) (Z.div za zb)
         && is_native (a mod b) (Z.rem za zb)
         && is_native nq eq && is_native nr er
         && Z.divides zb za = (a mod b = 0))
      && (a = min_int || b = min_int
         || is_native (native_gcd (Stdlib.abs a) (Stdlib.abs b)) (Z.gcd za zb)))

let prop_native_pow2 =
  prop "pow2/erem_pow2 agree with native shifts and masks" ~count:1000
    QCheck.(pair arb_boundary (int_range 0 62))
    (fun (a, m) ->
      (m > 61 || is_native (1 lsl m) (Z.pow2 m))
      && is_native (a land ((1 lsl m) - 1)) (Z.erem_pow2 (Z.of_int a) m))

let prop_mixed_add =
  prop "small + big: (a+b)-b = a, (a-b)+b = a" ~count:1000
    QCheck.(pair arb_boundary arb_big)
    (fun (a, b) ->
      let za = Z.of_int a in
      let s = Z.add za b and d = Z.sub za b in
      canonical s && canonical d
      && is_native a (Z.sub s b)
      && is_native a (Z.add d b)
      && Z.equal b (Z.sub (Z.add b za) za))

(* truncated division: the quotient's sign is the product of the signs (or
   zero) and the remainder takes the dividend's sign (or is zero) *)
let truncated_ok a b q r =
  Z.equal a (Z.add (Z.mul q b) r)
  && Z.compare (Z.abs r) (Z.abs b) < 0
  && (Z.is_zero r || Z.sign r = Z.sign a)
  && (Z.is_zero q || Z.sign q = Z.sign a * Z.sign b)
  && canonical q && canonical r

let prop_mixed_divmod =
  prop "small / big and big / small: a = q*b + r, sign rules" ~count:1000
    QCheck.(pair arb_boundary arb_big)
    (fun (a, big) ->
      let za = Z.of_int a in
      let q, r = Z.divmod za big in
      truncated_ok za big q r && Z.is_zero q && Z.equal r za
      && (a = 0
         ||
         let q, r = Z.divmod big za in
         let eq, er = Z.ediv_rem big za in
         truncated_ok big za q r
         && Z.equal big (Z.add (Z.mul eq za) er)
         && Z.sign er >= 0
         && Z.compare er (Z.abs za) < 0
         && canonical (Z.gcd big za)
         && Z.divides (Z.gcd big za) za))

(* divisors at the one-limb boundary (|b| < 2^30 is one limb, 2^30 and
   2^30 + 1 are two) against dividends of up to
   17 limbs (510 bits) of either sign, half of them multiples of the
   divisor so [divides] answers both ways *)
let prop_one_limb_divisors =
  let open QCheck.Gen in
  let divisor =
    map2 Z.mul_int
      (oneofl (List.map Z.of_int [ 1; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1 ]))
      (oneofl [ 1; -1 ])
  in
  let dividend =
    map2
      (fun neg limbs ->
        let v =
          List.fold_left
            (fun acc l -> Z.add (Z.mul acc (Z.pow2 30)) (Z.of_int l))
            Z.zero limbs
        in
        if neg then Z.neg v else v)
      bool
      (list_size (int_range 1 17) (int_bound ((1 lsl 30) - 1)))
  in
  prop "one-limb divisors: a = q*b + r, sign rules" ~count:2000
    (QCheck.make
       ~print:(fun (b, a, m) ->
         Printf.sprintf "b=%s a=%s multiple=%b" (Z.to_string b) (Z.to_string a) m)
       (triple divisor dividend bool))
    (fun (b, a, multiple) ->
      let a = if multiple then Z.mul a b else a in
      let q, r = Z.divmod a b and eq, er = Z.ediv_rem a b in
      truncated_ok a b q r
      && Z.equal a (Z.add (Z.mul eq b) er)
      && Z.sign er >= 0
      && Z.compare er (Z.abs b) < 0
      && Z.divides b a = Z.is_zero er
      && Z.is_zero r = Z.is_zero er
      && ((not multiple) || Z.is_zero r))

(* Limbs cluster where a quotient-limb estimate is corrected: 0, 1,
   around 2^29 (the divisor's top limb after normalization) and the top
   of a limb. *)
let structured_limb =
  QCheck.Gen.(
    frequency
      [ (7, oneofl [ 0; 1; (1 lsl 29) - 1; 1 lsl 29; (1 lsl 29) + 1;
                     (1 lsl 30) - 2; (1 lsl 30) - 1 ]);
        (1, int_bound ((1 lsl 30) - 1)) ])

(* a value of [min_limbs] to [max_limbs] structured limbs, of either
   sign; the top limb is never zero *)
let structured_value min_limbs max_limbs =
  QCheck.Gen.(
    map3
      (fun neg top rest ->
        let v =
          List.fold_left
            (fun acc l -> Z.add (Z.mul acc (Z.pow2 30)) (Z.of_int l))
            (Z.of_int (Stdlib.max 1 top)) rest
        in
        if neg then Z.neg v else v)
      bool structured_limb
      (list_size (int_range (min_limbs - 1) (max_limbs - 1)) structured_limb))

(* Long division by divisors of 2 to 6 limbs, dividends of up to 12 (so
   also shorter than the divisor), of either sign.  Half the dividends are
   multiples of the divisor. *)
let prop_multi_limb_divisors =
  let open QCheck.Gen in
  prop "multi-limb divisors: a = q*b + r, sign rules" ~count:3000
    (QCheck.make
       ~print:(fun (b, a, m) ->
         Printf.sprintf "b=%s a=%s multiple=%b" (Z.to_string b) (Z.to_string a) m)
       (triple (structured_value 2 6) (structured_value 1 12) bool))
    (fun (b, a, multiple) ->
      let a = if multiple then Z.mul a b else a in
      let q, r = Z.divmod a b and eq, er = Z.ediv_rem a b in
      truncated_ok a b q r
      && Z.equal a (Z.add (Z.mul eq b) er)
      && Z.sign er >= 0
      && Z.compare er (Z.abs b) < 0
      && Z.divides b a = Z.is_zero r
      && ((not multiple) || Z.is_zero r)
      && Z.equal a (Z.of_string (Z.to_string a)))

(* [sign + 2] folded over the base-2^30 limbs of |v|, least significant
   first: the hash of the sign-magnitude layout, which hashed tables of
   polynomials and DAG nodes have always used *)
let limb_hash v =
  let base = Z.pow2 30 in
  let rec go acc a =
    if Z.is_zero a then acc
    else
      let q, d = Z.ediv_rem a base in
      go (((acc * 65599) + Z.to_int_exn d) land max_int) q
  in
  go (Z.sign v + 2) (Z.abs v)

let prop_hash_limb_formula =
  prop "hash equals the limb formula" ~count:1000
    QCheck.(pair arb_boundary arb_big)
    (fun (a, big) ->
      let za = Z.of_int a in
      Z.hash za = limb_hash za && Z.hash big = limb_hash big)

(* [divides d a] decides a zero remainder, on immediates (0, +-1 and the
   extreme immediates among them) and bignums alike; half the dividends are
   drawn as multiples of the divisor, so both answers occur *)
let prop_divides_rem =
  let value =
    QCheck.Gen.(oneof [ map Z.of_int boundary_int_gen; QCheck.gen arb_big ])
  in
  prop "divides d a = is_zero (rem a d)" ~count:2000
    (QCheck.make
       ~print:(fun (d, a, k) ->
         Printf.sprintf "d=%s a=%s k=%s" (Z.to_string d) (Z.to_string a)
           (Option.fold ~none:"-" ~some:string_of_int k))
       QCheck.Gen.(triple value value (opt small_int_gen)))
    (fun (d, a, k) ->
      QCheck.assume (not (Z.is_zero d));
      let a = match k with Some k -> Z.mul (Z.of_int k) d | None -> a in
      Z.divides d a = Z.is_zero (Z.rem a d))

(* [divides] by a word-sized divisor (|d| < 2^32) reads the dividend's
   limbs top first; dividends of 3 to 12 structured limbs, half of them
   multiples of the divisor *)
let prop_word_divisors_divides =
  let open QCheck.Gen in
  let divisor =
    map2 ( * )
      (frequency
         [ (1, oneofl [ 1; 2; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 32) - 1 ]);
           (1, int_range 1 ((1 lsl 32) - 1)) ])
      (oneofl [ 1; -1 ])
  in
  prop "word-sized divisors: divides d a = is_zero (rem a d)" ~count:2000
    (QCheck.make
       ~print:(fun (d, a, m) ->
         Printf.sprintf "d=%d a=%s multiple=%b" d (Z.to_string a) m)
       (triple divisor (structured_value 3 12) bool))
    (fun (d, a, multiple) ->
      let d = Z.of_int d in
      let a = if multiple then Z.mul a d else a in
      Z.divides d a = Z.is_zero (Z.rem a d) && ((not multiple) || Z.divides d a))

(* sums, differences and products of word-sized operands that overflow a
   native int: the result leaves the immediate range and must take the
   same layout as the limb code's and the parser's *)
let prop_crossing_canonical =
  prop "results crossing ±2^62 are canonical" ~count:3000
    QCheck.(pair arb_boundary arb_boundary)
    (fun (a, b) ->
      let za = Z.of_int a and zb = Z.of_int b in
      (add_fits a b
      ||
      let s = Z.add za zb in
      canonical s && is_native a (Z.sub s zb))
      && (sub_fits a b
         ||
         let d = Z.sub za zb in
         canonical d && is_native a (Z.add d zb))
      && (mul_fits a b
         ||
         let p = Z.mul za zb in
         canonical p && Z.equal (Z.div p zb) za && Z.is_zero (Z.rem p zb)))

(* ---- the bounded memo table ---------------------------------------------- *)

module Memo = Polysynth_zint.Memo.Make (Int)

let test_memo_fifo () =
  let t : string Memo.t = Memo.create 2 in
  Alcotest.(check (option string)) "empty" None (Memo.find t 1);
  Memo.add t 1 "one";
  Memo.add t 2 "two";
  (* replacing a held key does not queue it twice *)
  Memo.add t 1 "uno";
  Alcotest.(check (option string)) "replaced" (Some "uno") (Memo.find t 1);
  (* a third key evicts the oldest, whatever was read since *)
  Memo.add t 3 "three";
  Alcotest.(check (option string)) "oldest evicted" None (Memo.find t 1);
  Alcotest.(check (option string)) "kept" (Some "two") (Memo.find t 2);
  Alcotest.(check (option string)) "newest" (Some "three") (Memo.find t 3);
  Alcotest.(check (pair int int)) "hits, misses" (3, 2) (Memo.stats t);
  Memo.clear t;
  Alcotest.(check (pair int int)) "counters reset" (0, 0) (Memo.stats t);
  Alcotest.(check (option string)) "cleared" None (Memo.find t 3)

let () =
  Alcotest.run "zint"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of_int extremes" `Quick test_of_int_extremes;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "of_string empty" `Quick test_of_string_empty;
          Alcotest.test_case "big arithmetic" `Quick test_big_arithmetic;
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "val2" `Quick test_val2;
          Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
          Alcotest.test_case "divmod add-back" `Quick test_divmod_add_back;
          Alcotest.test_case "ediv_rem" `Quick test_ediv_rem;
          Alcotest.test_case "erem_pow2" `Quick test_erem_pow2;
          Alcotest.test_case "gcd lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "divexact" `Quick test_divexact;
          Alcotest.test_case "divides" `Quick test_divides;
          Alcotest.test_case "num_bits" `Quick test_num_bits;
          Alcotest.test_case "to_int_opt bounds" `Quick test_to_int_opt_bounds;
        ] );
      ( "memo",
        [ Alcotest.test_case "bounded FIFO" `Quick test_memo_fifo ] );
      ( "native boundaries",
        [
          prop_native_oracle;
          prop_native_pow2;
          prop_mixed_add;
          prop_mixed_divmod;
          prop_hash_limb_formula;
          prop_crossing_canonical;
          prop_divides_rem;
          prop_one_limb_divisors;
          prop_multi_limb_divisors;
          prop_word_divisors_divides;
        ] );
      ( "properties",
        [
          prop_add_commutes;
          prop_add_assoc;
          prop_mul_commutes;
          prop_mul_assoc;
          prop_distrib;
          prop_sub_inverse;
          prop_matches_native;
          prop_divmod_invariant;
          prop_string_roundtrip;
          prop_gcd_divides;
          prop_compare_total_order;
          prop_hash_consistent;
          prop_num_bits_bound;
        ] );
    ]
