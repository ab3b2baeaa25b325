module Z = Polysynth_zint.Zint

module Mtbl = Hashtbl.Make (struct
  type t = Monomial.t

  let equal = Monomial.equal
  let hash = Monomial.hash
end)

(* Terms in descending graded-lex order, all coefficients non-zero. *)
type t = (Z.t * Monomial.t) list

let zero = []

let term c m = if Z.is_zero c then zero else [ (c, m) ]

let const c = term c Monomial.one
let of_int n = const (Z.of_int n)
let one = of_int 1
let var ?exp name = term Z.one (Monomial.var ?exp name)
let monomial m = term Z.one m

(* is [list] already a polynomial: strictly descending, no zero
   coefficient? *)
let rec canonical = function
  | [] -> true
  | [ (c, _) ] -> not (Z.is_zero c)
  | (c, m1) :: ((_, m2) :: _ as rest) ->
    (not (Z.is_zero c)) && Monomial.compare m1 m2 > 0 && canonical rest

(* A list that is already a polynomial is returned after one pass.  The
   rest combine duplicates through a hashtable on the monomials'
   precomputed hashes (O(n) expected) and sort the surviving terms once,
   instead of the O(n log n) comparison-heavy [Map.Make(Monomial)]
   churn. *)
let of_terms list =
  match list with
  | [] -> zero
  | [ (c, m) ] -> term c m
  | list when canonical list -> list
  | list ->
    let tbl = Mtbl.create 32 in
    List.iter
      (fun (c, m) ->
        match Mtbl.find_opt tbl m with
        | Some c0 -> Mtbl.replace tbl m (Z.add c0 c)
        | None -> Mtbl.add tbl m c)
      list;
    let terms =
      Mtbl.fold (fun m c acc -> if Z.is_zero c then acc else (c, m) :: acc) tbl []
    in
    List.sort (fun (_, m1) (_, m2) -> Monomial.compare m2 m1) terms

let of_sorted_terms list = (list : t)

let terms p = p
let num_terms p = List.length p
let is_zero p = p = []

let is_const = function
  | [] -> true
  | [ (_, m) ] -> Monomial.is_one m
  | _ :: _ :: _ -> false

let to_const_opt = function
  | [] -> Some Z.zero
  | [ (c, m) ] when Monomial.is_one m -> Some c
  | _ -> None

let leading = function
  | [] -> invalid_arg "Poly.leading: zero polynomial"
  | (c, m) :: _ -> (c, m)

let degree = function
  | [] -> -1
  | (_, m) :: _ -> Monomial.degree m

let degree_in v p =
  List.fold_left (fun acc (_, m) -> Stdlib.max acc (Monomial.degree_of v m)) 0 p

let vars p =
  List.sort_uniq String.compare
    (List.concat_map (fun (_, m) -> Monomial.vars m) p)

let mentions v p = List.exists (fun (_, m) -> Monomial.mentions v m) p

let equal (a : t) (b : t) =
  let rec go a b =
    match a, b with
    | [], [] -> true
    | (c, m) :: a, (c', m') :: b ->
      Monomial.equal m m' && Z.equal c c' && go a b
    | [], _ :: _ | _ :: _, [] -> false
  in
  a == b || go a b

let compare a b =
  let rec go a b =
    match a, b with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | (ca, ma) :: ra, (cb, mb) :: rb ->
      let c = Monomial.compare ma mb in
      if c <> 0 then c
      else
        let c = Z.compare ca cb in
        if c <> 0 then c else go ra rb
  in
  go a b

(* SplitMix64's finalizer with its constants cut to 63 bits: every output
   bit depends on every input bit, so [Hashtbl]'s low-bit buckets spread
   even over polynomials that differ only in a small coefficient *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let hash p =
  List.fold_left
    (fun acc (c, m) -> mix ((acc * 31) + mix (Z.hash c) + Monomial.hash m))
    3 p
  land max_int

let neg p = List.map (fun (c, m) -> (Z.neg c, m)) p

let rec add a b =
  match a, b with
  | [], p | p, [] -> p
  | (ca, ma) :: ra, (cb, mb) :: rb ->
    let cmp = Monomial.compare ma mb in
    if cmp > 0 then (ca, ma) :: add ra b
    else if cmp < 0 then (cb, mb) :: add a rb
    else
      let c = Z.add ca cb in
      if Z.is_zero c then add ra rb else (c, ma) :: add ra rb

let sub a b = add a (neg b)

let mul_term c m p =
  if Z.is_zero c then zero
  else List.map (fun (c', m') -> (Z.mul c c', Monomial.mul m m')) p

let mul_scalar c p = mul_term c Monomial.one p

let mul a b =
  match a, b with
  | [], _ | _, [] -> zero
  | _ ->
    List.fold_left (fun acc (c, m) -> add acc (mul_term c m b)) zero a

let pow p e =
  if e < 0 then invalid_arg "Poly.pow: negative exponent";
  let rec go acc base e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc base) (mul base base) (e lsr 1)
    else go acc (mul base base) (e lsr 1)
  in
  go one p e

let add_list ps = List.fold_left add zero ps

(* [r - cq*mq*b] in one merge, with no negated copy or product list: the
   tail of [r] past the last term it touches is shared *)
let rec sub_scaled r cq mq b =
  match b with
  | [] -> r
  | (c, m) :: b -> insert_scaled r cq mq (Z.mul cq c) (Monomial.mul mq m) b

and insert_scaled r cq mq c m b =
  match r with
  | (cr, mr) :: r' ->
    let cmp = Monomial.compare mr m in
    if cmp > 0 then (cr, mr) :: insert_scaled r' cq mq c m b
    else if cmp = 0 then
      let d = Z.sub cr c in
      if Z.is_zero d then sub_scaled r' cq mq b
      else (d, mr) :: sub_scaled r' cq mq b
    else (Z.neg c, m) :: sub_scaled r cq mq b
  | [] -> (Z.neg c, m) :: sub_scaled r cq mq b

(* The division's loops are top-level functions, so a division allocates
   no closure.  [first_reducible cb mb r] is the suffix of [r] from its
   first term reducible by [cb*mb].  The order is graded, so the search
   stops at the first term of lower degree than [mb]. *)
let rec first_reducible cb mb r =
  match r with
  | [] -> []
  | (c, m) :: rest ->
    if Monomial.degree m < Monomial.degree mb then []
    else if Monomial.divides mb m && (Z.is_one cb || Z.divides cb c) then r
    else first_reducible cb mb rest

(* [r]'s terms before the suffix [from], pushed onto [acc] *)
let rec push_until from acc r =
  if r == from then acc
  else match r with t :: r -> push_until from (t :: acc) r | [] -> acc

(* Reduce the leading term of the running remainder [r] while it is
   reducible and move it to the remainder while it is not.  Quotient terms
   come out strictly descending, so they are collected in reverse and never
   merge; once no term of [r] is reducible, [r] is the remainder's tail,
   shared as it is. *)
let rec divide cb mb b_tail q_rev rem_rev r =
  match first_reducible cb mb r with
  | [] -> (List.rev q_rev, List.rev_append rem_rev r)
  | (cr, mr) :: rest as from ->
    let mq =
      match Monomial.div mr mb with Some mq -> mq | None -> assert false
    in
    let cq = if Z.is_one cb then cr else Z.divexact cr cb in
    divide cb mb b_tail ((cq, mq) :: q_rev) (push_until from rem_rev r)
      (sub_scaled rest cq mq b_tail)

let div_rem a b =
  match b with
  | [] -> raise Division_by_zero
  | (cb, mb) :: b_tail -> divide cb mb b_tail [] [] a

let div_exact a b =
  if is_zero b then None
  else
    let q, r = div_rem a b in
    if is_zero r then Some q else None

let content p =
  List.fold_left (fun acc (c, _) -> Z.gcd acc c) Z.zero p

let div_scalar_exact p c =
  if Z.is_zero c then invalid_arg "Poly.div_scalar_exact: zero divisor";
  List.map
    (fun (c', m) ->
      if Z.divides c c' then (Z.divexact c' c, m)
      else invalid_arg "Poly.div_scalar_exact: inexact")
    p

let primitive_part p =
  match p with
  | [] -> zero
  | (lc, _) :: _ ->
    let c = content p in
    let c = if Z.is_negative lc then Z.neg c else c in
    div_scalar_exact p c

let derivative v p =
  List.fold_left
    (fun acc (c, m) ->
      let e = Monomial.degree_of v m in
      if e = 0 then acc
      else
        let m' =
          if e = 1 then Monomial.remove_var v m
          else Monomial.mul (Monomial.remove_var v m) (Monomial.var ~exp:(e - 1) v)
        in
        add acc (term (Z.mul_int c e) m'))
    zero p

let eval env p =
  List.fold_left
    (fun acc (c, m) -> Z.add acc (Z.mul c (Monomial.eval env m)))
    Z.zero p

let subst x q p =
  List.fold_left
    (fun acc (c, m) ->
      let e = Monomial.degree_of x m in
      if e = 0 then add acc (term c m)
      else
        let rest = Monomial.remove_var x m in
        add acc (mul_term c rest (pow q e)))
    zero p

let coeffs_in x p =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, m) ->
      let e = Monomial.degree_of x m in
      let rest = Monomial.remove_var x m in
      let prev = match Hashtbl.find_opt tbl e with Some p -> p | None -> zero in
      Hashtbl.replace tbl e (add prev (term c rest)))
    p;
  Hashtbl.fold (fun e c acc -> if is_zero c then acc else (e, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

let of_coeffs_in x coeffs =
  List.fold_left
    (fun acc (e, c) ->
      let xe = if e = 0 then one else var ~exp:e x in
      add acc (mul c xe))
    zero coeffs

let to_string p =
  if is_zero p then "0"
  else begin
    let buf = Buffer.create 64 in
    List.iteri
      (fun i (c, m) ->
        let neg = Z.is_negative c in
        let cabs = Z.abs c in
        if i = 0 then (if neg then Buffer.add_char buf '-')
        else Buffer.add_string buf (if neg then " - " else " + ");
        if Monomial.is_one m then Buffer.add_string buf (Z.to_string cabs)
        else begin
          if not (Z.is_one cabs) then begin
            Buffer.add_string buf (Z.to_string cabs);
            Buffer.add_char buf '*'
          end;
          Buffer.add_string buf (Monomial.to_string m)
        end)
      p;
    Buffer.contents buf
  end
