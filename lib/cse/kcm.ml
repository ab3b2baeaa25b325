module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly
module Monomial = Polysynth_poly.Monomial
module Dag = Polysynth_expr.Dag

type cube = Z.t * Monomial.t

let cube_compare (c1, m1) (c2, m2) =
  let c = Monomial.compare m1 m2 in
  if c <> 0 then c else Z.compare c1 c2

module CubeMap = Map.Make (struct
  type t = cube

  let compare = cube_compare
end)

(* A set of columns is a bitset: column [i] is bit [i mod Sys.int_size] of
   word [i / Sys.int_size], and every set of one matrix has the same
   number of words. *)
module Bits = struct
  let w = Sys.int_size

  let of_list ~words cols =
    let b = Array.make words 0 in
    List.iter (fun i -> b.(i / w) <- b.(i / w) lor (1 lsl (i mod w))) cols;
    b

  let inter = Array.map2 ( land )

  (* the loops are top-level functions, so a test allocates no closure *)
  let rec subset_from (a : int array) (b : int array) i =
    i < 0 || (a.(i) land lnot b.(i) = 0 && subset_from a b (i - 1))

  let subset a b = subset_from a b (Array.length a - 1)

  let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

  let cardinal b = Array.fold_left (fun acc x -> acc + popcount x) 0 b

  (* whether [a] and [b] share at least two columns, with no set built *)
  let rec meet_from (a : int array) (b : int array) i seen =
    i < Array.length a
    &&
    let x = a.(i) land b.(i) in
    if x = 0 then meet_from a b (i + 1) seen
    else if seen || x land (x - 1) <> 0 then true
    else meet_from a b (i + 1) true

  let meet_twice a b = meet_from a b 0 false

  (* the columns in increasing order *)
  let elements b =
    let out = ref [] in
    for i = (Array.length b * w) - 1 downto 0 do
      if b.(i / w) land (1 lsl (i mod w)) <> 0 then out := i :: !out
    done;
    !out
end

type t = {
  rows : (Monomial.t * Poly.t) array;  (** co-kernel, kernel *)
  row_cols : int array array;  (** the columns present in each row *)
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
  let row_lists =
    Array.map
      (fun (_, kernel) -> List.map index_of (Poly.terms kernel))
      rows
  in
  let words = (!next + Bits.w - 1) / Bits.w in
  let row_cols = Array.map (Bits.of_list ~words) row_lists in
  let cols = Array.make !next (Z.zero, Monomial.one) in
  CubeMap.iter (fun cube i -> cols.(i) <- cube) !col_index;
  { rows; row_cols; cols }

type rectangle = { rows : int list; body : Poly.t; value : int }

let body_of_cols t cols =
  Poly.of_terms (List.map (fun i -> t.cols.(i)) (Bits.elements cols))

let rows_of_cols t cols =
  (* all rows whose column set contains [cols] *)
  let out = ref [] in
  Array.iteri
    (fun i rc -> if Bits.subset cols rc then out := i :: !out)
    t.row_cols;
  List.rev !out

let cols_of_rows t rows =
  match rows with
  | [] -> Array.make (Array.length t.row_cols.(0)) 0
  | first :: rest ->
    List.fold_left
      (fun acc i -> Bits.inter acc t.row_cols.(i))
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
    if Bits.cardinal cols >= 2 then begin
      let rows, cols = rectangle_of_cols t cols in
      if List.length rows >= 2 && Bits.cardinal cols >= 2 then begin
        let key = (rows, cols) in
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
      if Bits.meet_twice t.row_cols.(i) t.row_cols.(j) then
        consider (Bits.inter t.row_cols.(i) t.row_cols.(j))
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
