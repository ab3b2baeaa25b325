module Z = Polysynth_zint.Zint
module Netlist = Polysynth_hw.Netlist

(* ---- exact integer intervals (pre-wrap-around) -------------------------- *)

(* The fact behind the width lint: the reachable interval of each cell
   over Z, before any truncation.  It deliberately ignores the datapath
   wrap: its concretization is the value of the cell under exact integer
   evaluation of the DAG. *)
module Int_interval = struct
  type t = Z.t * Z.t

  (* [c * [l, h]] for a constant [c] *)
  let scale c (l, h) =
    if Z.sign c >= 0 then (Z.mul c l, Z.mul c h) else (Z.mul c h, Z.mul c l)

  let mul (l1, h1) (l2, h2) =
    let a = Z.mul l1 l2 and b = Z.mul l1 h2 in
    let c = Z.mul h1 l2 and d = Z.mul h1 h2 in
    (Z.min (Z.min a b) (Z.min c d), Z.max (Z.max a b) (Z.max c d))

  let transfer ~width (op : Netlist.op) arg =
    match op with
    | Netlist.Input _ -> (Z.zero, Z.sub (Z.pow2 width) Z.one)
    | Netlist.Constant c -> (c, c)
    | Netlist.Negate ->
      let l, h = arg 0 in
      (Z.neg h, Z.neg l)
    | Netlist.Add2 ->
      let l1, h1 = arg 0 and l2, h2 = arg 1 in
      (Z.add l1 l2, Z.add h1 h2)
    | Netlist.Sub2 ->
      let l1, h1 = arg 0 and l2, h2 = arg 1 in
      (Z.sub l1 h2, Z.sub h1 l2)
    | Netlist.Mult2 -> mul (arg 0) (arg 1)
    | Netlist.Cmult c -> scale c (arg 0)
    | Netlist.Shl k -> scale (Z.pow2 k) (arg 0)
end

(* ---- constants mod 2^width --------------------------------------------- *)

(* A cell is a known constant of the ring or not known at all.  Beyond
   folding constant operands, three rules make a constant out of an
   unknown operand: a product with a zero factor, a constant multiplier
   that vanishes mod 2^width and a shift by at least the width. *)
module Const = struct
  type t = Const of Z.t | Top

  let wrap ~width v = Const (Z.erem_pow2 v width)
  let zero = Const Z.zero

  let transfer ~width (op : Netlist.op) arg =
    match op with
    | Netlist.Input _ -> Top
    | Netlist.Constant c -> wrap ~width c
    | Netlist.Negate -> (
      match arg 0 with Const a -> wrap ~width (Z.neg a) | Top -> Top)
    | Netlist.Add2 -> (
      match (arg 0, arg 1) with
      | Const a, Const b -> wrap ~width (Z.add a b)
      | _ -> Top)
    | Netlist.Sub2 -> (
      match (arg 0, arg 1) with
      | Const a, Const b -> wrap ~width (Z.sub a b)
      | _ -> Top)
    | Netlist.Mult2 -> (
      match (arg 0, arg 1) with
      | Const a, Const b -> wrap ~width (Z.mul a b)
      | (Const z, Top | Top, Const z) when Z.is_zero z -> zero
      | _ -> Top)
    | Netlist.Cmult c -> (
      match arg 0 with
      | Const a -> wrap ~width (Z.mul c a)
      | Top -> if Z.is_zero (Z.erem_pow2 c width) then zero else Top)
    | Netlist.Shl k -> (
      match arg 0 with
      | Const a -> wrap ~width (Z.mul (Z.pow2 k) a)
      | Top -> if k >= width then zero else Top)

  let as_const = function Const c -> Some c | Top -> None
  let to_string = function Const c -> Z.to_string c | Top -> "top"
  let top ~width:_ = Top

  let leq a b =
    match (a, b) with
    | _, Top -> true
    | Const x, Const y -> Z.equal x y
    | Top, Const _ -> false
end

(* perfbench's replay is the only user of this alias; the benchmark change
   that updates the replay (ROADMAP items 1 and 2) deletes it *)
module Product = Const
