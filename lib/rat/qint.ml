module Z = Polysynth_zint.Zint

type t = { num : Z.t; den : Z.t }

let den q = q.den

(* normalizes the fraction; raises Division_by_zero when [den] is zero *)
let make num den =
  if Z.is_zero den then raise Division_by_zero;
  if Z.is_zero num then { num = Z.zero; den = Z.one }
  else begin
    let g = Z.gcd num den in
    let num = Z.divexact num g and den = Z.divexact den g in
    if Z.is_negative den then { num = Z.neg num; den = Z.neg den }
    else { num; den }
  end

let of_zint n = { num = n; den = Z.one }
let of_int n = of_zint (Z.of_int n)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let is_zero q = Z.is_zero q.num
let is_integer q = Z.is_one q.den

let equal a b = Z.equal a.num b.num && Z.equal a.den b.den

let compare a b = Z.compare (Z.mul a.num b.den) (Z.mul b.num a.den)

let neg q = { q with num = Z.neg q.num }

let inv q =
  if is_zero q then raise Division_by_zero;
  if Z.is_negative q.num then { num = Z.neg q.den; den = Z.neg q.num }
  else { num = q.den; den = q.num }

let add a b =
  make (Z.add (Z.mul a.num b.den) (Z.mul b.num a.den)) (Z.mul a.den b.den)

let sub a b =
  make (Z.sub (Z.mul a.num b.den) (Z.mul b.num a.den)) (Z.mul a.den b.den)

let mul a b = make (Z.mul a.num b.num) (Z.mul a.den b.den)

let div a b =
  if is_zero b then raise Division_by_zero;
  make (Z.mul a.num b.den) (Z.mul a.den b.num)

let to_zint_exn q =
  if is_integer q then q.num
  else failwith "Qint.to_zint_exn: not an integer"

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
end
