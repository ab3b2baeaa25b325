module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Dag = Polysynth_expr.Dag

module IntSet = Set.Make (Int)

type cube = Z.t * Monomial.t

let cube_compare (c1, m1) (c2, m2) =
  let c = Monomial.compare m1 m2 in
  if c <> 0 then c else Z.compare c1 c2

module CubeMap = Map.Make (struct
  type t = cube

  let compare = cube_compare
end)

type t = {
  rows : (Monomial.t * Poly.t) array;  (** co-kernel, kernel *)
  row_cols : IntSet.t array;  (** column indices present in each row *)
  cols : cube array;
}

let build polys =
  let instances =
    List.concat_map (fun p -> Kernel.kernels p) polys
  in
  let rows = Array.of_list instances in
  (* assign column indices to distinct cubes *)
  let col_index = ref CubeMap.empty in
  let next = ref 0 in
  let index_of cube =
    match CubeMap.find_opt cube !col_index with
    | Some i -> i
    | None ->
      let i = !next in
      incr next;
      col_index := CubeMap.add cube i !col_index;
      i
  in
  let row_cols =
    Array.map
      (fun (_, kernel) ->
        List.fold_left
          (fun acc (c, m) -> IntSet.add (index_of (c, m)) acc)
          IntSet.empty (Poly.terms kernel))
      rows
  in
  let cols = Array.make !next (Z.zero, Monomial.one) in
  CubeMap.iter (fun cube i -> cols.(i) <- cube) !col_index;
  { rows; row_cols; cols }

let num_rows t = Array.length t.rows
let num_cols t = Array.length t.cols

let row_kernel t i =
  if i < 0 || i >= Array.length t.rows then
    invalid_arg "Kcm.row_kernel: out of range";
  t.rows.(i)

type rectangle = { rows : int list; body : Poly.t; value : int }

let body_of_cols t cols =
  Poly.of_terms (List.map (fun i -> t.cols.(i)) (IntSet.elements cols))

let rows_of_cols t cols =
  (* all rows whose column set contains [cols] *)
  let out = ref [] in
  Array.iteri
    (fun i rc -> if IntSet.subset cols rc then out := i :: !out)
    t.row_cols;
  List.rev !out

let cols_of_rows t rows =
  match rows with
  | [] -> IntSet.empty
  | first :: rest ->
    List.fold_left
      (fun acc i -> IntSet.inter acc t.row_cols.(i))
      t.row_cols.(first) rest

let rectangle_of_cols t cols =
  (* close under the Galois connection: rows of cols, then cols of rows *)
  let rows = rows_of_cols t cols in
  let cols = cols_of_rows t rows in
  (rows, cols)

let prime_rectangles t =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let consider cols =
    if IntSet.cardinal cols >= 2 then begin
      let rows, cols = rectangle_of_cols t cols in
      if List.length rows >= 2 && IntSet.cardinal cols >= 2 then begin
        let key = (rows, IntSet.elements cols) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          let body = body_of_cols t cols in
          let value = (List.length rows - 1) * Dag.poly_ops body in
          out := { rows; body; value } :: !out
        end
      end
    end
  in
  let n = Array.length t.row_cols in
  for i = 0 to n - 1 do
    consider t.row_cols.(i)
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      consider (IntSet.inter t.row_cols.(i) t.row_cols.(j))
    done
  done;
  let ranked =
    List.stable_sort (fun a b -> Stdlib.compare b.value a.value) !out
  in
  List.filteri (fun i _ -> i < 64) ranked

let candidates polys =
  let t = build polys in
  let rects = prime_rectangles t in
  let rec dedup seen = function
    | [] -> []
    | r :: rest ->
      if List.exists (Poly.equal r.body) seen then dedup seen rest
      else r.body :: dedup (r.body :: seen) rest
  in
  dedup [] rects
