(* Sign-magnitude bignums.  [mag] is little-endian in base 2^30 with no
   leading (high-order) zero limb; [sign] is 0 exactly when [mag] is empty. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi < 0 then zero
  else if hi = n - 1 then { sign; mag }
  else { sign; mag = Array.sub mag 0 (hi + 1) }

(* Native fast paths.  A value is "small" when its magnitude has at most
   two limbs (|v| < 2^60): it is read into a native int, and sums,
   differences, quotients, remainders and gcds of two small values are
   computed natively, then rebuilt by [of_native] in exactly the limb
   layout the general code produces. *)
let is_small z = Array.length z.mag <= 2

let native z =
  let m = z.mag in
  let v =
    match Array.length m with
    | 0 -> 0
    | 1 -> m.(0)
    | _ -> (m.(1) lsl base_bits) lor m.(0)
  in
  if z.sign < 0 then -v else v

(* any |v| < 2^62, i.e. every int except min_int *)
let of_native v =
  if v = 0 then zero
  else begin
    let sign = if v < 0 then -1 else 1 in
    let a = if v < 0 then -v else v in
    if a < base then { sign; mag = [| a |] }
    else if a < 1 lsl (2 * base_bits) then
      { sign; mag = [| a land base_mask; a lsr base_bits |] }
    else
      { sign;
        mag =
          [| a land base_mask;
             (a lsr base_bits) land base_mask;
             a lsr (2 * base_bits) |] }
  end

(* min_int is the one int whose magnitude, 2^62, has no native negation *)
let of_int n =
  if n = Stdlib.min_int then { sign = -1; mag = [| 0; 0; 1 lsl 2 |] }
  else of_native n

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign z = z.sign
let is_zero z = z.sign = 0
let is_negative z = z.sign < 0

let is_one z = z.sign = 1 && Array.length z.mag = 1 && z.mag.(0) = 1

let is_even z = z.sign = 0 || z.mag.(0) land 1 = 0

let neg z = if z.sign = 0 then z else { z with sign = -z.sign }
let abs z = if z.sign < 0 then { z with sign = 1 } else z

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0

let hash z =
  Array.fold_left (fun acc d -> (acc * 65599 + d) land max_int) (z.sign + 2) z.mag

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* magnitude addition *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r

(* magnitude subtraction, requires a >= b *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if is_small a && is_small b then of_native (native a + native b)
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)

let sub a b =
  if b.sign = 0 then a
  else if is_small a && is_small b then of_native (native a - native b)
  else add a (neg b)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    for j = 0 to lb - 1 do
      let p = (ai * b.(j)) + r.(i + j) + !carry in
      r.(i + j) <- p land base_mask;
      carry := p lsr base_bits
    done;
    let rec flush k c =
      if c <> 0 then begin
        let s = r.(k) + c in
        r.(k) <- s land base_mask;
        flush (k + 1) (s lsr base_bits)
      end
    in
    flush (i + lb) !carry
  done;
  r

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else if Array.length a.mag = 1 && Array.length b.mag = 1 then
    (* both below 2^30, so the product is below 2^60 *)
    of_native (native a * native b)
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

let mul_int a n = mul a (of_int n)

let num_bits z =
  let n = Array.length z.mag in
  if n = 0 then 0
  else begin
    let top = z.mag.(n - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + bits top 0
  end

let bit_at mag i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length mag then 0 else (mag.(limb) lsr off) land 1

(* Magnitude division by binary long division: simple and adequate for the
   moderate operand sizes arising in polynomial synthesis. *)
let divmod_mag a b =
  let nb = num_bits { sign = 1; mag = a } in
  let q = Array.make (Array.length a) 0 in
  let r = ref zero in
  let bz = { sign = 1; mag = b } in
  for i = nb - 1 downto 0 do
    (* r := 2r + bit i of a *)
    let doubled = add !r !r in
    let with_bit =
      if bit_at a i = 1 then add doubled one else doubled
    in
    if compare with_bit bz >= 0 then begin
      r := sub with_bit bz;
      q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
    end
    else r := with_bit
  done;
  (normalize 1 q, !r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else if is_small a && is_small b then
    (* native / and mod truncate exactly as documented *)
    let x = native a and y = native b in
    (of_native (x / y), of_native (x mod y))
  else if compare_mag a.mag b.mag < 0 then (zero, a)
  else begin
    let q, r = divmod_mag a.mag b.mag in
    let q = if a.sign * b.sign < 0 then neg q else q in
    let r = if a.sign < 0 then neg r else r in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (sub q one, add r b)
  else (add q one, sub r b)

let divexact a b =
  let q, r = divmod a b in
  if not (is_zero r) then invalid_arg "Zint.divexact: inexact division";
  q

let divides d a =
  if is_zero d then is_zero a else is_zero (rem a d)

let gcd a b =
  let rec native_gcd x y = if y = 0 then x else native_gcd y (x mod y) in
  let rec go a b =
    if is_small a && is_small b then of_native (native_gcd (native a) (native b))
    else if is_zero b then a
    else go b (rem a b)
  in
  go (abs a) (abs b)

let lcm a b =
  if is_zero a || is_zero b then zero else abs (mul (div a (gcd a b)) b)

let pow z e =
  if e < 0 then invalid_arg "Zint.pow: negative exponent";
  let rec go acc base e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc base) (mul base base) (e lsr 1)
    else go acc (mul base base) (e lsr 1)
  in
  go one z e

let pow2 m =
  if m < 0 then invalid_arg "Zint.pow2: negative exponent";
  if m < 62 then of_native (1 lsl m) else pow two m

let factorial n =
  if n < 0 then invalid_arg "Zint.factorial: negative input";
  let rec go acc k = if k > n then acc else go (mul_int acc k) (k + 1) in
  go one 1

let val2 z =
  if is_zero z then invalid_arg "Zint.val2: zero";
  let rec limb i = if z.mag.(i) = 0 then limb (i + 1) else i in
  let i = limb 0 in
  let rec bit v acc = if v land 1 = 1 then acc else bit (v lsr 1) (acc + 1) in
  (i * base_bits) + bit z.mag.(i) 0

let erem_pow2 z m =
  (* two's complement: the low m bits are the Euclidean residue *)
  if m < 62 && is_small z then of_native (native z land ((1 lsl m) - 1))
  else snd (ediv_rem z (pow2 m))

let to_int_opt z =
  (* Magnitudes up to 2^62 - 1 always fit; min_int (magnitude exactly 2^62,
     negative sign) is the single 63-bit value that also fits. *)
  let bits = num_bits z in
  if bits <= 62 then begin
    let v =
      Array.fold_right (fun d acc -> (acc lsl base_bits) lor d) z.mag 0
    in
    Some (if z.sign < 0 then -v else v)
  end
  else if bits = 63 && z.sign < 0 then begin
    let is_pow2_62 =
      Array.for_all (fun d -> d = 0) (Array.sub z.mag 0 (Array.length z.mag - 1))
      && z.mag.(Array.length z.mag - 1) = 1 lsl (62 - (Array.length z.mag - 1) * base_bits)
    in
    if is_pow2_62 then Some Stdlib.min_int else None
  end
  else None

let to_int_exn z =
  match to_int_opt z with
  | Some n -> n
  | None -> failwith "Zint.to_int_exn: value out of native int range"

let billion = of_int 1_000_000_000

let to_string z =
  if is_zero z then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks acc v =
      if is_zero v then acc
      else
        let q, r = divmod v billion in
        chunks (to_int_exn r :: acc) q
    in
    match chunks [] (abs z) with
    | [] -> assert false
    | first :: rest ->
      if z.sign < 0 then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Zint.of_string: empty string";
  let negative, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | '0' .. '9' -> (false, 0)
    | _ -> invalid_arg "Zint.of_string: malformed literal"
  in
  if start >= len then invalid_arg "Zint.of_string: malformed literal";
  let acc = ref zero in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
      acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0'))
    | _ -> invalid_arg "Zint.of_string: malformed literal"
  done;
  if negative then neg !acc else !acc

let pp fmt z = Format.pp_print_string fmt (to_string z)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
