module Q = Polysynth_rat.Qint

type t = { rows : int; cols : int; data : Q.t array array }

let make rows cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Qmatrix.make: bad dimensions";
  { rows; cols; data = Array.init rows (fun i -> Array.init cols (f i)) }

let rows m = m.rows
let cols m = m.cols
let get m i j = m.data.(i).(j)

let identity n =
  make n n (fun i j -> if i = j then Q.one else Q.zero)

let transpose m = make m.cols m.rows (fun i j -> m.data.(j).(i))

let mul a b =
  if a.cols <> b.rows then invalid_arg "Qmatrix.mul: dimension mismatch";
  make a.rows b.cols (fun i j ->
      let rec dot k acc =
        if k >= a.cols then acc
        else dot (k + 1) (Q.add acc (Q.mul a.data.(i).(k) b.data.(k).(j)))
      in
      dot 0 Q.zero)

(* Gauss-Jordan on the augmented matrix [a | b]; returns x or None. *)
let solve a b =
  if a.rows <> a.cols then invalid_arg "Qmatrix.solve: matrix not square";
  if b.rows <> a.rows then invalid_arg "Qmatrix.solve: dimension mismatch";
  let n = a.rows and bw = b.cols in
  let aug =
    Array.init n (fun i ->
        Array.init (n + bw) (fun j ->
            if j < n then a.data.(i).(j) else b.data.(i).(j - n)))
  in
  let exception Singular in
  try
    for col = 0 to n - 1 do
      let pivot_row =
        let rec find i =
          if i >= n then raise Singular
          else if not (Q.is_zero aug.(i).(col)) then i
          else find (i + 1)
        in
        find col
      in
      if pivot_row <> col then begin
        let tmp = aug.(col) in
        aug.(col) <- aug.(pivot_row);
        aug.(pivot_row) <- tmp
      end;
      let pivot = aug.(col).(col) in
      for j = col to n + bw - 1 do
        aug.(col).(j) <- Q.div aug.(col).(j) pivot
      done;
      for i = 0 to n - 1 do
        if i <> col && not (Q.is_zero aug.(i).(col)) then begin
          let factor = aug.(i).(col) in
          for j = col to n + bw - 1 do
            aug.(i).(j) <- Q.sub aug.(i).(j) (Q.mul factor aug.(col).(j))
          done
        end
      done
    done;
    Some (make n bw (fun i j -> aug.(i).(n + j)))
  with Singular -> None

let inverse a = solve a (identity a.rows)
