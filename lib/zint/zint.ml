(* Arbitrary-precision integers: a word-sized value is an immediate OCaml
   int, a wider one a sign-magnitude record of base-2^30 limbs. *)

(* ---- the representation --------------------------------------------------
   This view is the only code that looks through [Obj].

   Invariant: a value [v] with [min_int < v <= max_int] (|v| < 2^62) is
   always the immediate int [v].  Every other value (|v| >= 2^62; min_int
   too, whose negation has no native form) is a [big] block: [sign] is -1
   or 1 and [mag] is little-endian in base 2^30 with a non-zero top limb.
   So each value has exactly one representation, and [equal], [hash], and
   polymorphic equality and hashing of structures holding a [t], give the
   same answers whichever operation built it.  (Polymorphic [compare] is
   consistent with equality but does not follow numeric order: it puts
   every immediate before every block.) *)

type big = { sign : int; mag : int array }
type t = Obj.t

let is_small (x : t) = Obj.is_int x

(* [n <> min_int] *)
let of_small (n : int) : t = Obj.repr n

(* [is_small x] *)
let to_small (x : t) : int = Obj.obj x

(* [b] is in limb normal form with magnitude at least 2^62 *)
let of_big (b : big) : t = Obj.repr b

(* [not (is_small x)] *)
let to_big (x : t) : big = Obj.obj x

(* ---- limbs --------------------------------------------------------------- *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

let zero = of_small 0
let one = of_small 1
let two = of_small 2
let minus_one = of_small (-1)

let min_int_limbs = { sign = -1; mag = [| 0; 0; 1 lsl 2 |] }

(* bit length of a non-negative native int *)
let bit_length a =
  let rec go a n =
    if a >= 256 then go (a lsr 8) (n + 8)
    else if a = 0 then n
    else go (a lsr 1) (n + 1)
  in
  go a 0

(* The limbs of any value.  An immediate's limbs are a transient view for
   the limb code ([sign] is 0 for zero); they never escape as a [t]. *)
let limbs x =
  if not (is_small x) then to_big x
  else begin
    let v = to_small x in
    let a = Stdlib.abs v in
    let n = if a = 0 then 0 else (bit_length a + base_bits - 1) / base_bits in
    { sign = Int.compare v 0;
      mag = Array.init n (fun i -> (a lsr (i * base_bits)) land base_mask) }
  end

(* the value of a limb result: an immediate whenever it fits *)
let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi < 0 then zero
  else if hi < 2 || (hi = 2 && mag.(2) < 1 lsl 2) then begin
    (* |v| < 2^62 *)
    let a = ref 0 in
    for i = hi downto 0 do
      a := (!a lsl base_bits) lor mag.(i)
    done;
    of_small (sign * !a)
  end
  else if hi = n - 1 then of_big { sign; mag }
  else of_big { sign; mag = Array.sub mag 0 (hi + 1) }

let of_int n = if n = Stdlib.min_int then of_big min_int_limbs else of_small n

let sign x = if is_small x then Int.compare (to_small x) 0 else (to_big x).sign
let is_zero x = x == zero
let is_one x = x == one
let is_negative x = if is_small x then to_small x < 0 else (to_big x).sign < 0

let is_even x =
  if is_small x then to_small x land 1 = 0 else (to_big x).mag.(0) land 1 = 0

(* a block's negation never fits a word: |v| >= 2^62 *)
let neg x =
  if is_small x then of_small (-to_small x)
  else
    let b = to_big x in
    of_big { b with sign = -b.sign }

let abs x =
  if is_small x then of_small (Stdlib.abs (to_small x))
  else
    let b = to_big x in
    if b.sign < 0 then of_big { b with sign = 1 } else x

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

(* a block lies beyond every immediate, on the side of its sign *)
let compare a b =
  match is_small a, is_small b with
  | true, true -> Int.compare (to_small a) (to_small b)
  | true, false -> -(to_big b).sign
  | false, true -> (to_big a).sign
  | false, false ->
    let a = to_big a and b = to_big b in
    if a.sign <> b.sign then Int.compare a.sign b.sign
    else if a.sign > 0 then compare_mag a.mag b.mag
    else compare_mag b.mag a.mag

let equal a b = a == b || ((not (is_small a)) && compare a b = 0)

(* [sign + 2] folded over the base-2^30 limbs of |v|, least significant
   first; an immediate folds its (at most three) limbs without building
   them *)
let hash_step acc d = ((acc * 65599) + d) land max_int

let hash x =
  if is_small x then begin
    let v = to_small x in
    if v = 0 then 2
    else begin
      let a = Stdlib.abs v in
      let h = hash_step (if v < 0 then 1 else 3) (a land base_mask) in
      if a < base then h
      else
        let h = hash_step h ((a lsr base_bits) land base_mask) in
        if a < 1 lsl (2 * base_bits) then h
        else hash_step h (a lsr (2 * base_bits))
    end
  end
  else
    let b = to_big x in
    Array.fold_left hash_step (b.sign + 2) b.mag

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

(* both non-zero *)
let add_limbs a b =
  if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)

(* An immediate sum overflows when both operands' signs differ from the
   wrapped result's; a result of min_int fits the machine but not the
   invariant.  Either way the limb code computes it. *)
let add a b =
  if is_small a && is_small b then begin
    let x = to_small a and y = to_small b in
    let s = x + y in
    if (x lxor s) land (y lxor s) >= 0 && s <> Stdlib.min_int then of_small s
    else add_limbs (limbs a) (limbs b)
  end
  else if is_zero a then b
  else if is_zero b then a
  else add_limbs (limbs a) (limbs b)

let sub a b =
  if is_small a && is_small b then begin
    let x = to_small a and y = to_small b in
    let d = x - y in
    if (x lxor y) land (x lxor d) >= 0 && d <> Stdlib.min_int then of_small d
    else add a (of_small (-y))
  end
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

let mul_limbs a b = normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

(* Factors below 2^31 cannot overflow; larger ones are checked by dividing
   back. *)
let mul a b =
  if is_small a && is_small b then begin
    let x = to_small a and y = to_small b in
    let p = x * y in
    if (Stdlib.abs x lor Stdlib.abs y) < 1 lsl 31 then of_small p
    else if x <> 0 && (p / x <> y || p = Stdlib.min_int) then
      mul_limbs (limbs a) (limbs b)
    else of_small p
  end
  else if is_zero a || is_zero b then zero
  else mul_limbs (limbs a) (limbs b)

let mul_int a n = mul a (of_int n)

let num_bits_mag mag =
  let n = Array.length mag in
  if n = 0 then 0 else ((n - 1) * base_bits) + bit_length mag.(n - 1)

let num_bits x =
  if is_small x then bit_length (Stdlib.abs (to_small x))
  else num_bits_mag (to_big x).mag

(* Magnitude division of the limbs [u] by the limbs [v] (u >= v > 0):
   Knuth's algorithm D (TAOCP vol. 2, 4.3.1) in base 2^30.  Both are
   shifted left until the divisor's top limb has bit 29 set.  Each quotient
   limb is estimated from the remainder's top two limbs over that limb and
   lowered while it is at least 2^30 or [qhat * v[n-2] > rhat * 2^30 +
   u[j+n-2]], which leaves it at most one too large: then the
   multiply-and-subtract goes negative and one add-back corrects it.  A
   one-limb divisor takes the same loop, its estimates exact.  Every
   product is below 2^61, so all of it is native ints. *)
let divmod_mag u v =
  let n = Array.length v and m = Array.length u - Array.length v in
  let s = base_bits - bit_length v.(n - 1) in
  let limb x i = if i >= 0 && i < Array.length x then x.(i) else 0 in
  let shift x len =
    Array.init len (fun i ->
        ((limb x i lsl s) land base_mask) lor (limb x (i - 1) lsr (base_bits - s)))
  in
  let vn = shift v n and un = shift u (m + n + 1) in
  let top = vn.(n - 1) and next = limb vn (n - 2) in
  (* u[j..j+n] -= k * v with a signed borrow, for k < 2^30 or k = -1 (the
     add-back, whose carry out of the top is dropped); returns the top
     limb's difference, negative when the result is *)
  let sub_mul j k =
    let c = ref 0 in
    for i = 0 to n - 1 do
      let p = k * vn.(i) in
      let t = un.(i + j) - (p land base_mask) + !c in
      un.(i + j) <- t land base_mask;
      c := (t asr base_bits) - (p asr base_bits)
    done;
    let t = un.(j + n) + !c in
    un.(j + n) <- t land base_mask;
    t
  in
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let num = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let rec lower qhat rhat =
      if rhat < base
         && (qhat >= base
            || qhat * next > (rhat lsl base_bits) lor limb un (j + n - 2))
      then lower (qhat - 1) (rhat + top)
      else qhat
    in
    let qhat = lower (num / top) (num mod top) in
    if sub_mul j qhat >= 0 then q.(j) <- qhat
    else begin
      ignore (sub_mul j (-1) : int);
      q.(j) <- qhat - 1
    end
  done;
  let r =
    Array.init n (fun i ->
        (un.(i) lsr s) lor ((un.(i + 1) lsl (base_bits - s)) land base_mask))
  in
  (normalize 1 q, normalize 1 r)

(* Native [/] and [mod] truncate exactly as documented.  An immediate
   dividend over a block divisor is the whole remainder: |a| < 2^62 <= |b|. *)
let divmod a b =
  if is_small a && is_small b then begin
    let x = to_small a and y = to_small b in
    if y = 0 then raise Division_by_zero;
    (of_small (x / y), of_small (x mod y))
  end
  else if is_zero b then raise Division_by_zero
  else if is_small a then (zero, a)
  else begin
    let la = to_big a and lb = limbs b in
    if compare_mag la.mag lb.mag < 0 then (zero, a)
    else begin
      let q, r = divmod_mag la.mag lb.mag in
      let q = if la.sign * lb.sign < 0 then neg q else q in
      let r = if la.sign < 0 then neg r else r in
      (q, r)
    end
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  if is_small a && is_small b && not (is_zero b) then begin
    let x = to_small a and y = to_small b in
    let q = x / y and r = x mod y in
    if r >= 0 then (of_small q, of_small r)
    else if y > 0 then (of_small (q - 1), of_small (r + y))
    else (of_small (q + 1), of_small (r - y))
  end
  else begin
    let q, r = divmod a b in
    if sign r >= 0 then (q, r)
    else if sign b > 0 then (sub q one, add r b)
    else (add q one, sub r b)
  end

let divexact a b =
  let q, r = divmod a b in
  if not (is_zero r) then invalid_arg "Zint.divexact: inexact division";
  q

(* the remainder of the limbs [mag] over [d] (0 < d < 2^32), top limb
   first from [i]: each [(r lsl 30) lor limb] stays below 2^62 *)
let rec rem_word (mag : int array) d i r =
  if i < 0 then r
  else rem_word mag d (i - 1) (((r lsl base_bits) lor mag.(i)) mod d)

(* two immediates are decided natively, without the [divmod] tuple, and a
   block over a word-sized divisor limb by limb, without copying it *)
let divides d a =
  if is_zero d then is_zero a
  else if is_small d && is_small a then to_small a mod to_small d = 0
  else if is_small d && Stdlib.abs (to_small d) < 1 lsl 32 then
    let mag = (to_big a).mag in
    rem_word mag (Stdlib.abs (to_small d)) (Array.length mag - 1) 0 = 0
  else is_zero (rem a d)

(* Euclid on limbs until both values fit a word, then natively *)
let gcd a b =
  let rec native_gcd x y = if y = 0 then x else native_gcd y (x mod y) in
  let rec go a b =
    if is_small a && is_small b then of_small (native_gcd (to_small a) (to_small b))
    else if is_zero b then a
    else go b (rem a b)
  in
  go (abs a) (abs b)

let lcm a b =
  if is_zero a || is_zero b then zero else abs (mul (div a (gcd a b)) b)

let pow z e =
  if e < 0 then invalid_arg "Zint.pow: negative exponent";
  (* no squaring past the top bit of [e]: it could only widen a value
     nothing reads *)
  let rec go acc base e =
    let acc = if e land 1 = 1 then mul acc base else acc in
    if e <= 1 then acc else go acc (mul base base) (e lsr 1)
  in
  go one z e

let pow2 m =
  if m < 0 then invalid_arg "Zint.pow2: negative exponent";
  if m < 62 then of_small (1 lsl m)
  else begin
    let mag = Array.make ((m / base_bits) + 1) 0 in
    mag.(m / base_bits) <- 1 lsl (m mod base_bits);
    of_big { sign = 1; mag }
  end

let factorial n =
  if n < 0 then invalid_arg "Zint.factorial: negative input";
  let rec go acc k = if k > n then acc else go (mul_int acc k) (k + 1) in
  go one 1

(* trailing zeros of a non-zero native int (the same for [v] and [-v]) *)
let trailing_zeros v =
  let rec go v k = if v land 1 = 1 then k else go (v asr 1) (k + 1) in
  go v 0

let val2 x =
  if is_zero x then invalid_arg "Zint.val2: zero";
  if is_small x then trailing_zeros (to_small x)
  else begin
    let mag = (to_big x).mag in
    let rec limb i = if mag.(i) = 0 then limb (i + 1) else i in
    let i = limb 0 in
    (i * base_bits) + trailing_zeros mag.(i)
  end

let erem_pow2 z m =
  (* two's complement: the low m bits are the Euclidean residue *)
  if m < 62 && is_small z then of_small (to_small z land ((1 lsl m) - 1))
  else snd (ediv_rem z (pow2 m))

(* min_int is the one block that fits a native int *)
let to_int_opt x =
  if is_small x then Some (to_small x)
  else
    let b = to_big x in
    if b.sign < 0 && compare_mag b.mag min_int_limbs.mag = 0 then
      Some Stdlib.min_int
    else None

let to_int_exn z =
  match to_int_opt z with
  | Some n -> n
  | None -> failwith "Zint.to_int_exn: value out of native int range"

let billion = of_small 1_000_000_000

let to_string x =
  if is_small x then string_of_int (to_small x)
  else begin
    let buf = Buffer.create 32 in
    let rec chunks acc v =
      if is_zero v then acc
      else
        let q, r = divmod v billion in
        chunks (to_int_exn r :: acc) q
    in
    match chunks [] (abs x) with
    | [] -> assert false
    | first :: rest ->
      if is_negative x then Buffer.add_char buf '-';
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
      acc := add (mul_int !acc 10) (of_small (Char.code c - Char.code '0'))
    | _ -> invalid_arg "Zint.of_string: malformed literal"
  done;
  if negative then neg !acc else !acc

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
