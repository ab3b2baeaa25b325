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

(* ---- wrap-aware intervals over Z_2^m ------------------------------------ *)

(* Values live in [0, 2^w).  Each transfer is the exact integer interval
   transfer of [Int_interval], re-normalized by [wrap]: a result spanning
   at least 2^w values is top, otherwise both ends wrap; an interval whose
   wrapped ends cross the zero boundary is widened to top rather than
   split. *)
module Interval = struct
  include Int_interval

  let wrap ~width = function
    | Bot -> Bot
    | Iv (lo, hi) ->
      if Z.compare (Z.sub hi lo) (Z.sub (Z.pow2 width) Z.one) >= 0 then
        top ~width
      else
        let lo' = clamp ~width lo and hi' = clamp ~width hi in
        if Z.compare lo' hi' <= 0 then Iv (lo', hi') else top ~width

  let const ~width c = wrap ~width (const ~width c)
  let neg ~width a = wrap ~width (neg ~width a)
  let add ~width a b = wrap ~width (add ~width a b)
  let sub ~width a b = wrap ~width (sub ~width a b)
  let mul ~width a b = wrap ~width (mul ~width a b)
  let cmul ~width c a = wrap ~width (cmul ~width c a)
  let shl ~width k a = wrap ~width (shl ~width k a)
end

(* ---- known bits ---------------------------------------------------------- *)

(* Per-bit three-valued facts: bit i is known 0, known 1, or unknown.
   Addition and subtraction propagate carries through a three-valued full
   adder; multiplication tracks known trailing zeros (and the first odd
   bit), which subsumes the parity domain. *)
module Known_bits = struct
  (* bits.(i) is the fact for bit i (LSB first): 0, 1, or 2 = unknown *)
  type t = Bot | Bits of int array

  let bottom = Bot
  let is_bottom t = t = Bot
  let top ~width = Bits (Array.make width 2)

  let leq a b =
    match (a, b) with
    | Bot, _ -> true
    | _, Bot -> false
    | Bits x, Bits y ->
      Array.length x = Array.length y
      && Array.for_all2 (fun bx by -> by = 2 || bx = by) x y

  let bits_of ~width v =
    let arr = Array.make width 0 in
    let rec go i v =
      if i < width then begin
        let q, r = Z.divmod v Z.two in
        arr.(i) <- Z.to_int_exn r;
        go (i + 1) q
      end
    in
    go 0 (clamp ~width v);
    Bits arr

  let const = bits_of
  let input ~width _ = top ~width

  let assemble arr =
    let acc = ref Z.zero in
    for i = Array.length arr - 1 downto 0 do
      acc := Z.add (Z.mul Z.two !acc) (Z.of_int arr.(i))
    done;
    !acc

  let as_const ~width:_ = function
    | Bits arr when Array.for_all (fun b -> b <> 2) arr -> Some (assemble arr)
    | _ -> None

  (* three-valued ripple carry: at each position the three incoming bits
     (a, b, carry) sum to a total whose known part is [lo..lo+unknowns];
     the sum bit is known only when nothing is unknown, the carry whenever
     every possible total lands on the same side of 2 *)
  let ripple ~width xa xb carry0 =
    let out = Array.make width 2 in
    let carry = ref carry0 in
    for i = 0 to width - 1 do
      let parts = [ xa.(i); xb.(i); !carry ] in
      let lo = List.fold_left (fun acc b -> if b = 1 then acc + 1 else acc) 0 parts in
      let unknowns = List.length (List.filter (fun b -> b = 2) parts) in
      let hi = lo + unknowns in
      out.(i) <- (if unknowns = 0 then lo land 1 else 2);
      carry := (if lo >= 2 then 1 else if hi < 2 then 0 else 2)
    done;
    Bits out

  let complement arr = Array.map (fun b -> match b with 0 -> 1 | 1 -> 0 | _ -> 2) arr

  let add ~width a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Bits xa, Bits xb -> ripple ~width xa xb 0

  let sub ~width a b =
    (* a - b = a + ~b + 1 in two's complement *)
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Bits xa, Bits xb -> ripple ~width xa (complement xb) 1

  let neg ~width a = sub ~width (const ~width Z.zero) a

  (* number of low bits known to be zero; [width] when the value is the
     constant zero *)
  let trailing_zeros arr =
    let n = Array.length arr in
    let rec go i = if i < n && arr.(i) = 0 then go (i + 1) else i in
    go 0

  let mul ~width a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Bits xa, Bits xb -> (
      match (as_const ~width a, as_const ~width b) with
      | Some ca, Some cb -> const ~width (Z.mul ca cb)
      | Some c, _ when Z.is_one c -> b
      | _, Some c when Z.is_one c -> a
      | _ ->
        let ta = trailing_zeros xa and tb = trailing_zeros xb in
        if ta + tb >= width then const ~width Z.zero
        else begin
          let out = Array.make width 2 in
          for i = 0 to ta + tb - 1 do
            out.(i) <- 0
          done;
          (* odd * odd is odd, shifted up by the known zero runs *)
          if ta < width && tb < width && xa.(ta) = 1 && xb.(tb) = 1 then
            out.(ta + tb) <- 1;
          Bits out
        end)

  let cmul ~width c a = mul ~width (const ~width c) a

  let shl ~width k a =
    match a with
    | Bot -> Bot
    | Bits x ->
      Bits
        (Array.init width (fun i ->
             if i < k then 0
             else if i - k < Array.length x then x.(i - k)
             else 0))

  let contains ~width t v =
    match t with
    | Bot -> false
    | Bits arr -> (
      match bits_of ~width v with
      | Bits vb ->
        Array.for_all2 (fun fact bit -> fact = 2 || fact = bit) arr vb
      | Bot -> false)

  let to_string = function
    | Bot -> "bot"
    | Bits arr ->
      let buf = Buffer.create (Array.length arr) in
      for i = Array.length arr - 1 downto 0 do
        Buffer.add_char buf
          (match arr.(i) with 0 -> '0' | 1 -> '1' | _ -> '.')
      done;
      Buffer.contents buf
end

(* ---- congruence: value = r (mod 2^k) ------------------------------------ *)

module Congruence = struct
  (* [Cong (k, r)] with [0 <= r < 2^k] and [0 <= k <= width]; [k = 0] is
     top, [k = width] pins the value exactly *)
  type t = Bot | Cong of int * Z.t

  let bottom = Bot
  let is_bottom t = t = Bot
  let top ~width:_ = Cong (0, Z.zero)

  let leq a b =
    match (a, b) with
    | Bot, _ -> true
    | _, Bot -> false
    | Cong (k1, r1), Cong (k2, r2) ->
      k1 >= k2 && Z.equal (Z.erem_pow2 r1 k2) r2

  let const ~width c = Cong (width, clamp ~width c)
  let input ~width t = ignore t; top ~width

  let lift2 ~width f a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Cong (k1, r1), Cong (k2, r2) ->
      let k, r = f k1 r1 k2 r2 in
      let k = Stdlib.min k width in
      Cong (k, Z.erem_pow2 r k)

  let add ~width = lift2 ~width (fun k1 r1 k2 r2 -> (Stdlib.min k1 k2, Z.add r1 r2))
  let sub ~width = lift2 ~width (fun k1 r1 k2 r2 -> (Stdlib.min k1 k2, Z.sub r1 r2))

  let neg ~width:_ = function
    | Bot -> Bot
    | Cong (k, r) -> Cong (k, Z.erem_pow2 (Z.neg r) k)

  (* a = r1 + s*2^k1, b = r2 + t*2^k2 gives a*b = r1*r2 modulo
     2^min(k1 + v2(r2), k2 + v2(r1)): each cross term carries the factor's
     residue 2-adic valuation on top of the other's modulus *)
  let mul ~width =
    lift2 ~width (fun k1 r1 k2 r2 ->
        let t1 = if Z.is_zero r1 then k1 else Stdlib.min k1 (Z.val2 r1) in
        let t2 = if Z.is_zero r2 then k2 else Stdlib.min k2 (Z.val2 r2) in
        (Stdlib.min (k1 + t2) (k2 + t1), Z.mul r1 r2))

  let cmul ~width c a = mul ~width (const ~width c) a

  let shl ~width k = function
    | Bot -> Bot
    | Cong (ka, r) ->
      let k' = Stdlib.min width (ka + k) in
      Cong (k', Z.erem_pow2 (Z.mul (Z.pow2 k) r) k')

  let as_const ~width t =
    match t with
    | Cong (k, r) when k >= width -> Some r
    | _ -> None

  let contains ~width t v =
    match t with
    | Bot -> false
    | Cong (k, r) ->
      let k = Stdlib.min k width in
      Z.equal (Z.erem_pow2 v k) (Z.erem_pow2 r k)

  let to_string = function
    | Bot -> "bot"
    | Cong (0, _) -> "top"
    | Cong (k, r) -> Printf.sprintf "%s mod 2^%d" (Z.to_string r) k
end

(* ---- reduced product ----------------------------------------------------- *)

(* The three wrap-aware domains running in lockstep, with information
   exchanged after every transfer: a constant discovered by any factor is
   pushed into the others, the congruence's pinned low bits flow into the
   known-bits vector, and the known-bits vector's trailing known run flows
   back into the congruence.  A contradiction between factors collapses to
   bottom.  Reduction only ever tightens components, so each component
   stays at or below the fact the factor would compute on its own. *)
module Product = struct
  type t =
    | Bot
    | P of { iv : Interval.t; kb : Known_bits.t; cg : Congruence.t }

  let bottom = Bot
  let is_bottom t = t = Bot

  let top ~width =
    P { iv = Interval.top ~width; kb = Known_bits.top ~width; cg = Congruence.top ~width }

  let leq a b =
    match (a, b) with
    | Bot, _ -> true
    | _, Bot -> false
    | P x, P y ->
      Interval.leq x.iv y.iv && Known_bits.leq x.kb y.kb
      && Congruence.leq x.cg y.cg

  let interval t = match t with Bot -> Interval.Bot | P x -> x.iv
  let known_bits t = match t with Bot -> Known_bits.Bot | P x -> x.kb
  let congruence t = match t with Bot -> Congruence.Bot | P x -> x.cg

  let mk_const ~width c =
    P
      {
        iv = Interval.const ~width c;
        kb = Known_bits.const ~width c;
        cg = Congruence.const ~width c;
      }

  let as_const ~width = function
    | Bot -> None
    | P x -> (
      match Interval.as_const ~width x.iv with
      | Some c -> Some c
      | None -> (
        match Known_bits.as_const ~width x.kb with
        | Some c -> Some c
        | None -> Congruence.as_const ~width x.cg))

  let contains ~width t v =
    match t with
    | Bot -> false
    | P x ->
      let v = clamp ~width v in
      Interval.contains ~width x.iv v
      && Known_bits.contains ~width x.kb v
      && Congruence.contains ~width x.cg v

  (* one reduction step; returns [Bot] on contradiction *)
  let reduce_once ~width t =
    match t with
    | Bot -> Bot
    | P { iv; kb; cg } -> (
      if
        Interval.is_bottom iv || Known_bits.is_bottom kb
        || Congruence.is_bottom cg
      then Bot
      else
        (* a constant pinned by any factor pins them all *)
        match as_const ~width t with
        | Some c -> if contains ~width t c then mk_const ~width c else Bot
        | None -> (
          (* congruence low bits -> known bits *)
          let kb_bits =
            match kb with Known_bits.Bits arr -> Some (Array.copy arr) | _ -> None
          in
          match (kb_bits, cg) with
          | Some arr, Congruence.Cong (k, r) -> (
            let conflict = ref false in
            (match Known_bits.const ~width r with
             | Known_bits.Bits rbits ->
               for i = 0 to Stdlib.min k width - 1 do
                 if arr.(i) = 2 then arr.(i) <- rbits.(i)
                 else if arr.(i) <> rbits.(i) then conflict := true
               done
             | Known_bits.Bot -> conflict := true);
            if !conflict then Bot
            else
              (* known-bits trailing run -> congruence *)
              let run =
                let rec go i = if i < width && arr.(i) <> 2 then go (i + 1) else i in
                go 0
              in
              let cg' =
                if run > k then
                  Congruence.Cong
                    (run, Known_bits.assemble (Array.sub arr 0 run))
                else cg
              in
              P { iv; kb = Known_bits.Bits arr; cg = cg' })
          | _ -> P { iv; kb; cg }))

  let reduce ~width t =
    (* two rounds reach the local fixpoint of the exchanges above: the
       second pass re-checks constancy after bits were merged *)
    reduce_once ~width (reduce_once ~width t)

  let lift2 ~width fiv fkb fcg a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | P x, P y ->
      reduce ~width
        (P
           {
             iv = fiv ~width x.iv y.iv;
             kb = fkb ~width x.kb y.kb;
             cg = fcg ~width x.cg y.cg;
           })

  let lift1 ~width fiv fkb fcg a =
    match a with
    | Bot -> Bot
    | P x ->
      reduce ~width
        (P { iv = fiv ~width x.iv; kb = fkb ~width x.kb; cg = fcg ~width x.cg })

  let const ~width c = mk_const ~width (clamp ~width c)
  let input ~width _ = top ~width
  let neg ~width = lift1 ~width Interval.neg Known_bits.neg Congruence.neg
  let add ~width = lift2 ~width Interval.add Known_bits.add Congruence.add
  let sub ~width = lift2 ~width Interval.sub Known_bits.sub Congruence.sub
  let mul ~width = lift2 ~width Interval.mul Known_bits.mul Congruence.mul

  let cmul ~width c =
    lift1 ~width
      (fun ~width iv -> Interval.cmul ~width c iv)
      (fun ~width kb -> Known_bits.cmul ~width c kb)
      (fun ~width cg -> Congruence.cmul ~width c cg)

  let shl ~width k =
    lift1 ~width
      (fun ~width iv -> Interval.shl ~width k iv)
      (fun ~width kb -> Known_bits.shl ~width k kb)
      (fun ~width cg -> Congruence.shl ~width k cg)

  let to_string = function
    | Bot -> "bot"
    | P { iv; kb; cg } ->
      Printf.sprintf "%s  bits=%s  %s" (Interval.to_string iv)
        (Known_bits.to_string kb) (Congruence.to_string cg)
end
