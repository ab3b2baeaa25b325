module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Expr = Polysynth_expr.Expr

type t = int

type node =
  | Leaf of Z.t
  | Node of { var : string; const : t; linear : t }
      (* value = const + var * linear, with linear <> leaf 0 *)

(* One manager may be shared by callers on several domains, so every
   public operation takes the manager lock; the recursive workers below it
   are lock-free. *)
type manager = {
  mutable nodes : node array;
  mutable len : int;
  memo : (node, t) Hashtbl.t;
  mutable order : string list;  (* decomposition order, most significant first *)
  lock : Mutex.t;
}

let create ?(order = []) () =
  {
    nodes = Array.make 64 (Leaf Z.zero);
    len = 0;
    memo = Hashtbl.create 64;
    order;
    lock = Mutex.create ();
  }

let node_of m i = m.nodes.(i)

let intern m n =
  match Hashtbl.find_opt m.memo n with
  | Some id -> id
  | None ->
    if m.len = Array.length m.nodes then begin
      let bigger = Array.make (2 * m.len) (Leaf Z.zero) in
      Array.blit m.nodes 0 bigger 0 m.len;
      m.nodes <- bigger
    end;
    let id = m.len in
    m.nodes.(id) <- n;
    m.len <- m.len + 1;
    Hashtbl.add m.memo n id;
    id

let leaf m c = intern m (Leaf c)

let mk_node m var const linear =
  match node_of m linear with
  | Leaf c when Z.is_zero c -> const
  | Leaf _ | Node _ -> intern m (Node { var; const; linear })

(* position of a variable in the decomposition order; unseen variables are
   appended (deterministically, at first use) *)
let var_rank m v =
  let rec find i = function
    | [] ->
      m.order <- m.order @ [ v ];
      i
    | v' :: rest -> if String.equal v v' then i else find (i + 1) rest
  in
  find 0 m.order

let of_poly m p =
  (* decompose along the manager's order, registering unseen variables
     first so ranks are stable *)
  List.iter (fun v -> ignore (var_rank m v)) (Poly.vars p);
  let rec build p =
    match Poly.to_const_opt p with
    | Some c -> leaf m c
    | None ->
      (* the present variable with the smallest rank *)
      let v =
        List.fold_left
          (fun best v ->
            match best with
            | None -> Some v
            | Some b -> if var_rank m v < var_rank m b then Some v else best)
          None (Poly.vars p)
        |> Option.get
      in
      let coeffs = Poly.coeffs_in v p in
      let c0 =
        match List.assoc_opt 0 coeffs with Some c -> c | None -> Poly.zero
      in
      let rest =
        Poly.of_coeffs_in v
          (List.filter_map
             (fun (k, c) -> if k = 0 then None else Some (k - 1, c))
             coeffs)
      in
      mk_node m v (build c0) (build rest)
  in
  build p

let rec to_poly m i =
  match node_of m i with
  | Leaf c -> Poly.const c
  | Node { var; const; linear } ->
    Poly.add (to_poly m const) (Poly.mul (Poly.var var) (to_poly m linear))

let equal (a : t) (b : t) = a = b

let num_nodes m = m.len

let decompose m root =
  let memo = Hashtbl.create 64 in
  let rec go i =
    match Hashtbl.find_opt memo i with
    | Some e -> e
    | None ->
      let e =
        match node_of m i with
        | Leaf c -> Expr.const c
        | Node { var; const; linear } ->
          Expr.add [ go const; Expr.mul [ Expr.var var; go linear ] ]
      in
      Hashtbl.replace memo i e;
      e
  in
  go root

(* ---- locked public API ------------------------------------------------
   Shadow the lock-free workers above with wrappers that serialize on the
   manager lock, so a manager can be shared across domains. *)

let locked m f = Mutex.protect m.lock f
let leaf m c = locked m (fun () -> leaf m c)
let of_poly m p = locked m (fun () -> of_poly m p)
let to_poly m i = locked m (fun () -> to_poly m i)
let num_nodes m = locked m (fun () -> num_nodes m)
let decompose m root = locked m (fun () -> decompose m root)
