module Z = Polysynth_zint.Zint

type id = int

type node =
  | Nconst of Z.t
  | Nvar of string
  | Nneg of id
  | Nadd of id * id
  | Nsub of id * id
  | Nmul of id * id

let node_hash = function
  | Nconst c -> Z.hash c * 3
  | Nvar v -> Hashtbl.hash v * 5
  | Nneg a -> (a * 7) + 1
  | Nadd (a, b) -> (a * 8191) + (b * 31) + 2
  | Nsub (a, b) -> (a * 8191) + (b * 31) + 3
  | Nmul (a, b) -> (a * 8191) + (b * 31) + 4

let node_equal a b =
  match a, b with
  | Nconst x, Nconst y -> Z.equal x y
  | Nvar x, Nvar y -> String.equal x y
  | Nneg x, Nneg y -> x = y
  | Nadd (x, y), Nadd (x', y')
  | Nsub (x, y), Nsub (x', y')
  | Nmul (x, y), Nmul (x', y') -> x = x' && y = y'
  | (Nconst _ | Nvar _ | Nneg _ | Nadd _ | Nsub _ | Nmul _), _ -> false

module Memo = Hashtbl.Make (struct
  type t = node

  let equal = node_equal
  let hash n = node_hash n land max_int
end)

type t = { mutable nodes : node array; mutable len : int; memo : id Memo.t }

let create () = { nodes = Array.make 64 (Nconst Z.zero); len = 0; memo = Memo.create 64 }

let num_nodes dag = dag.len

let node dag i =
  if i < 0 || i >= dag.len then invalid_arg "Dag.node: id out of range";
  dag.nodes.(i)

let intern dag n =
  match Memo.find_opt dag.memo n with
  | Some id -> id
  | None ->
    if dag.len = Array.length dag.nodes then begin
      let bigger = Array.make (2 * dag.len) (Nconst Z.zero) in
      Array.blit dag.nodes 0 bigger 0 dag.len;
      dag.nodes <- bigger
    end;
    let id = dag.len in
    dag.nodes.(id) <- n;
    dag.len <- dag.len + 1;
    Memo.add dag.memo n id;
    id

(* Commutative operators get canonically ordered operands so that a+b and
   b+a coincide. *)
let mk_add dag a b = intern dag (Nadd (Stdlib.min a b, Stdlib.max a b))
let mk_mul dag a b = intern dag (Nmul (Stdlib.min a b, Stdlib.max a b))
let mk_sub dag a b = intern dag (Nsub (a, b))
let mk_neg dag a = intern dag (Nneg a)

(* balanced pairwise reduction: combine adjacent pairs until one value is
   left.  Depth is logarithmic, and equal operand prefixes of sorted lists
   still meet on shared nodes. *)
let reduce_balanced combine ids =
  let rec round = function
    | [] -> invalid_arg "Dag.reduce_balanced: empty"
    | [ x ] -> x
    | xs ->
      let rec pair_up = function
        | [] -> []
        | [ x ] -> [ x ]
        | a :: b :: rest -> combine a b :: pair_up rest
      in
      round (pair_up xs)
  in
  round ids

let add_expr ?(env = fun _ -> None) dag expr =
  let rec build e =
    match (e : Expr.t) with
    | Expr.Const c -> intern dag (Nconst c)
    | Expr.Var v ->
      (match env v with Some id -> id | None -> intern dag (Nvar v))
    | Expr.Neg e -> mk_neg dag (build e)
    | Expr.Pow (b, k) ->
      (* multiplication chain: shares power prefixes via hash-consing *)
      let base = build b in
      let rec chain acc i = if i >= k then acc else chain (mk_mul dag acc base) (i + 1) in
      chain base 1
    | Expr.Mul factors ->
      (match List.map build factors with
       | [] -> intern dag (Nconst Z.one)
       | ids -> reduce_balanced (mk_mul dag) ids)
    | Expr.Add operands ->
      (* positive operands form a balanced adder tree, negative ones a
         balanced tree subtracted once — the shape a synthesis tool's
         tree-height reduction would build *)
      let pos, negs =
        List.partition_map
          (fun e ->
            match (e : Expr.t) with
            | Expr.Neg e' -> Either.Right e'
            | Expr.Const _ | Expr.Var _ | Expr.Add _ | Expr.Mul _ | Expr.Pow _ ->
              Either.Left e)
          operands
      in
      let pos_ids = List.map build pos and neg_ids = List.map build negs in
      (match pos_ids, neg_ids with
       | [], [] -> intern dag (Nconst Z.zero)
       | [], ns -> mk_neg dag (reduce_balanced (mk_add dag) ns)
       | ps, [] -> reduce_balanced (mk_add dag) ps
       | ps, ns ->
         mk_sub dag
           (reduce_balanced (mk_add dag) ps)
           (reduce_balanced (mk_add dag) ns))
  in
  build expr

let live dag ~roots =
  let seen = Array.make dag.len false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      match dag.nodes.(i) with
      | Nconst _ | Nvar _ -> ()
      | Nneg a -> visit a
      | Nadd (a, b) | Nsub (a, b) | Nmul (a, b) -> visit a; visit b
    end
  in
  List.iter visit roots;
  let out = ref [] in
  for i = dag.len - 1 downto 0 do
    if seen.(i) then out := i :: !out
  done;
  !out

type counts = { mults : int; adds : int }

let zero_counts = { mults = 0; adds = 0 }

let total_ops c = c.mults + c.adds

let counts dag ~roots =
  List.fold_left
    (fun acc i ->
      match dag.nodes.(i) with
      | Nconst _ | Nvar _ | Nneg _ -> acc
      | Nadd _ | Nsub _ -> { acc with adds = acc.adds + 1 }
      | Nmul _ -> { acc with mults = acc.mults + 1 })
    zero_counts (live dag ~roots)

let tree_counts expr =
  let rec go acc (e : Expr.t) =
    match e with
    | Expr.Const _ | Expr.Var _ -> acc
    | Expr.Neg e -> go acc e
    | Expr.Pow (b, k) ->
      let acc = go acc b in
      { acc with mults = acc.mults + (k - 1) }
    | Expr.Mul factors ->
      let acc = List.fold_left go acc factors in
      { acc with mults = acc.mults + (List.length factors - 1) }
    | Expr.Add operands ->
      let acc = List.fold_left go acc operands in
      { acc with adds = acc.adds + (List.length operands - 1) }
  in
  go zero_counts expr

(* [total_ops (tree_counts e)] without building a record per node: an
   n-operand sum or product costs n - 1, a k-th power k - 1 *)
let tree_ops expr =
  let rec go acc (e : Expr.t) =
    match e with
    | Expr.Const _ | Expr.Var _ -> acc
    | Expr.Neg e -> go acc e
    | Expr.Pow (b, k) -> go (acc + k - 1) b
    | Expr.Mul operands | Expr.Add operands -> go_list (acc - 1) operands
  and go_list acc = function
    | [] -> acc
    | e :: rest -> go_list (go (acc + 1) e) rest
  in
  go 0 expr

(* [tree_ops (Expr.of_poly p)] read off the terms: n terms cost n - 1
   adders, a term c*m costs deg m - 1 multipliers plus one for |c| <> 1,
   and a constant term costs nothing *)
let poly_ops p =
  let term acc (c, m) =
    let mults =
      Polysynth_poly.Monomial.degree m - 1
      + if Z.is_one (Z.abs c) then 0 else 1
    in
    acc + max 0 mults
  in
  let terms = Polysynth_poly.Poly.terms p in
  List.fold_left term (max 0 (List.length terms - 1)) terms
