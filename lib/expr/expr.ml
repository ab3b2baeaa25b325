module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial

type t =
  | Const of Z.t
  | Var of string
  | Neg of t
  | Add of t list
  | Mul of t list
  | Pow of t * int

(* ordering: variables and composite terms first, constants last, so that a
   product prints and binarizes as [x*y*...*c] *)
let rank = function
  | Var _ -> 0
  | Pow _ -> 1
  | Mul _ -> 2
  | Add _ -> 3
  | Neg _ -> 4
  | Const _ -> 5

let rec compare a b =
  let ra = rank a and rb = rank b in
  if ra <> rb then Stdlib.compare ra rb
  else
    match a, b with
    | Var x, Var y -> String.compare x y
    | Const x, Const y -> Z.compare x y
    | Neg x, Neg y -> compare x y
    | Pow (x, i), Pow (y, j) ->
      let c = compare x y in
      if c <> 0 then c else Stdlib.compare i j
    | Add xs, Add ys | Mul xs, Mul ys -> compare_list xs ys
    | (Var _ | Const _ | Neg _ | Pow _ | Add _ | Mul _), _ -> assert false

and compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs ys

let equal a b = compare a b = 0

let zero = Const Z.zero
let one = Const Z.one

let const c = if Z.is_negative c then Neg (Const (Z.neg c)) else Const c
let int n = const (Z.of_int n)
let var v = Var v

let neg = function
  | Neg e -> e
  | Const c when Z.is_zero c -> Const c
  | e -> Neg e

let rec add operands =
  (* flatten nested sums, fold all constants, sort what remains *)
  let rec flatten acc = function
    | [] -> acc
    | Add es :: rest -> flatten (flatten acc es) rest
    | Neg (Add es) :: rest -> flatten (flatten acc (List.map neg es)) rest
    | e :: rest -> flatten (e :: acc) rest
  in
  let flat = flatten [] operands in
  let constant, others =
    List.fold_left
      (fun (c, others) e ->
        match e with
        | Const k -> (Z.add c k, others)
        | Neg (Const k) -> (Z.sub c k, others)
        | Var _ | Neg _ | Add _ | Mul _ | Pow _ -> (c, e :: others))
      (Z.zero, []) flat
  in
  let parts =
    List.sort compare others
    @ (if Z.is_zero constant then [] else [ const constant ])
  in
  match parts with
  | [] -> zero
  | [ e ] -> e
  | parts ->
    (* prefer a positive first operand for readability; the set of operands
       is what matters for cost *)
    if List.for_all (fun e -> match e with Neg _ -> true | _ -> false) parts
    then Neg (Add (List.map neg parts))
    else Add parts

and sub a b = add [ a; neg b ]

and mul operands =
  let rec flatten (sign, c, fs) = function
    | [] -> (sign, c, fs)
    | Mul es :: rest -> flatten (flatten (sign, c, fs) es) rest
    | Neg e :: rest -> flatten (flatten (-sign, c, fs) [ e ]) rest
    | Const k :: rest -> flatten (sign, Z.mul c k, fs) rest
    | e :: rest -> flatten (sign, c, e :: fs) rest
  in
  let sign, c, factors = flatten (1, Z.one, []) operands in
  if Z.is_zero c then zero
  else begin
    let sign = if Z.is_negative c then -sign else sign in
    let c = Z.abs c in
    (* group equal factors into powers *)
    let grouped =
      List.sort compare factors
      |> List.fold_left
           (fun acc f ->
             match acc with
             | (g, k) :: rest when equal g f -> (g, k + 1) :: rest
             | _ -> (f, 1) :: acc)
           []
      |> List.rev_map (fun (f, k) -> if k = 1 then f else pow f k)
      |> List.sort compare
    in
    let parts = grouped @ (if Z.is_one c then [] else [ Const c ]) in
    let body =
      match parts with
      | [] -> one
      | [ e ] -> e
      | parts -> Mul parts
    in
    if sign < 0 then neg body else body
  end

and pow base k =
  if k < 0 then invalid_arg "Expr.pow: negative exponent";
  if k = 0 then one
  else if k = 1 then base
  else
    match base with
    | Const c -> Const (Z.pow c k)
    | Neg e -> if k land 1 = 0 then pow e k else neg (pow e k)
    | Pow (e, j) -> pow e (j * k)
    | Var _ | Add _ | Mul _ -> Pow (base, k)

(* A term is built as [mul (const c :: factors)] would normalize it, without
   the flattening and sorting: a monomial's variables are distinct and come
   in name order, so the sorted factors are its exponent-1 variables, then
   its powers, then [|c|] unless it is one, negated for a negative [c]. *)
let of_poly p =
  let of_term (c, m) =
    let vars, pows =
      Monomial.fold
        (fun (vars, pows) v e ->
          if e = 1 then (Var v :: vars, pows) else (vars, Pow (Var v, e) :: pows))
        ([], []) m
    in
    let c' = Z.abs c in
    let parts =
      List.rev_append vars
        (List.rev_append pows (if Z.is_one c' then [] else [ Const c' ]))
    in
    let body = match parts with [] -> one | [ e ] -> e | parts -> Mul parts in
    if Z.is_negative c then Neg body else body
  in
  add (List.map of_term (Poly.terms p))

let rec to_poly = function
  | Const c -> Poly.const c
  | Var v -> Poly.var v
  | Neg e -> Poly.neg (to_poly e)
  | Add es -> Poly.add_list (List.map to_poly es)
  | Mul es -> List.fold_left (fun acc e -> Poly.mul acc (to_poly e)) Poly.one es
  | Pow (e, k) -> Poly.pow (to_poly e) k

let rec eval env = function
  | Const c -> c
  | Var v -> env v
  | Neg e -> Z.neg (eval env e)
  | Add es -> List.fold_left (fun acc e -> Z.add acc (eval env e)) Z.zero es
  | Mul es -> List.fold_left (fun acc e -> Z.mul acc (eval env e)) Z.one es
  | Pow (e, k) -> Z.pow (eval env e) k

let rec subst lookup = function
  | Const _ as e -> e
  | Var v as e -> (match lookup v with Some e' -> e' | None -> e)
  | Neg e -> neg (subst lookup e)
  | Add es -> add (List.map (subst lookup) es)
  | Mul es -> mul (List.map (subst lookup) es)
  | Pow (e, k) -> pow (subst lookup e) k

let vars e =
  let rec go acc = function
    | Const _ -> acc
    | Var v -> v :: acc
    | Neg e | Pow (e, _) -> go acc e
    | Add es | Mul es -> List.fold_left go acc es
  in
  List.sort_uniq String.compare (go [] e)

(* precedence: 0 sum, 1 product, 2 power/atom *)
let rec pp_prec level fmt e =
  let paren needed body =
    if needed then Format.fprintf fmt "(%t)" body else body fmt
  in
  match e with
  | Const c -> Format.pp_print_string fmt (Z.to_string c)
  | Var v -> Format.pp_print_string fmt v
  | Neg e ->
    paren (level > 0) (fun fmt -> Format.fprintf fmt "-%a" (pp_prec 1) e)
  | Add es ->
    paren (level > 0) (fun fmt ->
        List.iteri
          (fun i e ->
            if i = 0 then pp_prec 1 fmt e
            else
              match e with
              | Neg e' -> Format.fprintf fmt " - %a" (pp_prec 1) e'
              | Const _ | Var _ | Add _ | Mul _ | Pow _ ->
                Format.fprintf fmt " + %a" (pp_prec 1) e)
          es)
  | Mul es ->
    paren (level > 1) (fun fmt ->
        List.iteri
          (fun i e ->
            if i > 0 then Format.pp_print_string fmt "*";
            pp_prec 2 fmt e)
          es)
  | Pow (e, k) ->
    Format.fprintf fmt "%a^%d" (pp_prec 3) e k

let pp fmt e = pp_prec 0 fmt e
let to_string e = Format.asprintf "%a" pp e
