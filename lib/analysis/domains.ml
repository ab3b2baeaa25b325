module Z = Polysynth_zint.Zint

(* ---- the domain signature --------------------------------------------- *)

module type DOMAIN = sig
  type t

  val bottom : t
  val is_bottom : t -> bool
  val top : width:int -> t
  val leq : t -> t -> bool

  (* transfer functions, one per netlist operator *)
  val const : width:int -> Z.t -> t
  val input : width:int -> string -> t
  val neg : width:int -> t -> t
  val add : width:int -> t -> t -> t
  val sub : width:int -> t -> t -> t
  val mul : width:int -> t -> t -> t
  val cmul : width:int -> Z.t -> t -> t
  val shl : width:int -> int -> t -> t

  (* queries *)
  val as_const : width:int -> t -> Z.t option
  val contains : width:int -> t -> Z.t -> bool
  val to_string : t -> string
end

let clamp ~width v = Z.erem_pow2 v width

let is_pow2 c =
  if Z.sign c <= 0 then None
  else
    let k = Z.val2 c in
    if Z.equal c (Z.pow2 k) then Some k else None

(* ---- exact integer intervals (pre-wrap-around) -------------------------- *)

(* The domain behind the width lint: the reachable interval of each cell
   over Z, before any truncation.  It deliberately ignores the datapath
   wrap: its concretization is the value of the cell under exact integer
   evaluation of the DAG. *)
module Int_interval = struct
  type t = Bot | Iv of Z.t * Z.t

  let bottom = Bot
  let is_bottom t = t = Bot
  let top ~width = Iv (Z.zero, Z.sub (Z.pow2 width) Z.one)

  let leq a b =
    match (a, b) with
    | Bot, _ -> true
    | _, Bot -> false
    | Iv (l1, h1), Iv (l2, h2) -> Z.compare l2 l1 <= 0 && Z.compare h1 h2 <= 0

  let const ~width:_ c = Iv (c, c)
  let input ~width _ = top ~width

  let lift1 f = function Bot -> Bot | Iv (l, h) -> f l h

  let lift2 f a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) -> f l1 h1 l2 h2

  let neg ~width:_ = lift1 (fun l h -> Iv (Z.neg h, Z.neg l))
  let add ~width:_ = lift2 (fun l1 h1 l2 h2 -> Iv (Z.add l1 l2, Z.add h1 h2))
  let sub ~width:_ = lift2 (fun l1 h1 l2 h2 -> Iv (Z.sub l1 h2, Z.sub h1 l2))

  let mul_bounds l1 h1 l2 h2 =
    let products = [ Z.mul l1 l2; Z.mul l1 h2; Z.mul h1 l2; Z.mul h1 h2 ] in
    Iv
      ( List.fold_left Z.min (List.hd products) (List.tl products),
        List.fold_left Z.max (List.hd products) (List.tl products) )

  let mul ~width:_ = lift2 mul_bounds
  let cmul ~width:_ c = lift1 (fun l h -> mul_bounds c c l h)
  let shl ~width:_ k = lift1 (fun l h -> mul_bounds (Z.pow2 k) (Z.pow2 k) l h)

  let as_const ~width:_ = function
    | Iv (l, h) when Z.equal l h -> Some l
    | _ -> None

  let contains ~width:_ t v =
    match t with
    | Bot -> false
    | Iv (l, h) -> Z.compare l v <= 0 && Z.compare v h <= 0

  let range = function Bot -> None | Iv (l, h) -> Some (l, h)

  let to_string = function
    | Bot -> "bot"
    | Iv (l, h) ->
      if Z.equal l h then Z.to_string l
      else Printf.sprintf "[%s, %s]" (Z.to_string l) (Z.to_string h)
end

(* ---- constants mod 2^width --------------------------------------------- *)

(* A cell is a known constant of the ring or not known at all.  Beyond
   folding constant operands, three rules make a constant out of an
   unknown operand: a product with a zero factor, a constant multiplier
   that vanishes mod 2^width and a shift by at least the width. *)
module Const = struct
  type t = Bot | Const of Z.t | Top

  let bottom = Bot
  let is_bottom t = t = Bot
  let top ~width:_ = Top

  let leq a b =
    match (a, b) with
    | Bot, _ | _, Top -> true
    | Const x, Const y -> Z.equal x y
    | _ -> false

  let const ~width c = Const (clamp ~width c)
  let input ~width:_ _ = Top
  let zero = Const Z.zero

  let lift1 ~width f = function
    | Const a -> const ~width (f a)
    | t -> t

  let lift2 ~width f a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Const x, Const y -> const ~width (f x y)
    | _ -> Top

  let neg ~width = lift1 ~width Z.neg
  let add ~width = lift2 ~width Z.add
  let sub ~width = lift2 ~width Z.sub

  let mul ~width a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | _, Const y when Z.is_zero y -> zero
    | Const x, _ when Z.is_zero x -> zero
    | _ -> lift2 ~width Z.mul a b

  let cmul ~width c = function
    | Bot -> Bot
    | _ when Z.is_zero (clamp ~width c) -> zero
    | a -> lift1 ~width (Z.mul c) a

  let shl ~width k = function
    | Bot -> Bot
    | _ when k >= width -> zero
    | a -> lift1 ~width (Z.mul (Z.pow2 k)) a

  let as_const ~width:_ = function Const c -> Some c | _ -> None

  let contains ~width t v =
    match t with
    | Bot -> false
    | Const c -> Z.equal c (clamp ~width v)
    | Top -> true

  let to_string = function
    | Bot -> "bot"
    | Const c -> Z.to_string c
    | Top -> "top"
end

(* perfbench's replay is the only user of this alias; the benchmark change
   that updates the replay (ROADMAP items 1 and 2) deletes it *)
module Product = Const
