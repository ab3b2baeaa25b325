module Z = Polysynth_zint.Zint

(* Interned packed representation: [pairs] interleaves (variable id,
   exponent) with exponents strictly positive, sorted by the alphabetical
   rank of the id's name (see {!Symtab} — that order is append-stable, so
   the array never needs resorting).  Total degree and a structural hash
   are precomputed, making [degree]/[hash] O(1) and giving [equal] and the
   hashtable paths an O(1) negative fast path; all the merge loops
   ([mul]/[div]/[gcd]/[lcm]/[compare]) run on ints only. *)
type t = {
  pairs : int array;  (* id0; e0; id1; e1; ... *)
  degree : int;
  hash : int;
}

let compute_degree pairs =
  let d = ref 0 in
  let n = Array.length pairs in
  let i = ref 1 in
  while !i < n do
    d := !d + pairs.(!i);
    i := !i + 2
  done;
  !d

let compute_hash pairs =
  Array.fold_left (fun acc x -> ((acc * 131) + x) land max_int) 17 pairs

let mk pairs =
  { pairs; degree = compute_degree pairs; hash = compute_hash pairs }

let degree m = m.degree
let hash m = m.hash
let is_one m = Array.length m.pairs = 0

(* The merge loops are top-level functions over [int array]s: without
   flambda a local [let rec] capturing its operands allocates a closure on
   every call, and an unannotated array parameter would make every [<] on
   its elements the polymorphic compare. *)
let rec equal_from (pa : int array) (pb : int array) i n =
  i >= n || (pa.(i) = pb.(i) && equal_from pa pb (i + 1) n)

let structural_equal a b =
  a == b
  || (a.hash = b.hash && a.degree = b.degree
      &&
      let n = Array.length a.pairs in
      n = Array.length b.pairs && equal_from a.pairs b.pairs 0 n)

let equal = structural_equal

(* ---- hash-consing ------------------------------------------------------ *)

(* Optional sharing: structurally equal monomials built through the
   string-based constructors are physically shared across a synthesis run,
   turning their [equal] into pointer equality.  The weak set lets the GC
   reclaim monomials no longer referenced anywhere else.  The hot integer
   merge loops below do NOT pay the table lookup; sharing is applied where
   monomials enter the system ([var]/[of_list]), through [hashcons]. *)
module HC = Weak.Make (struct
  type nonrec t = t

  let equal = structural_equal
  let hash m = m.hash
end)

let hc_table = HC.create 4096
let hc_lock = Mutex.create ()
let hashcons m = Mutex.protect hc_lock (fun () -> HC.merge hc_table m)

let one = hashcons (mk [||])

(* the exponent-1 monomial of every interned variable, cached per id so the
   extraction loops' ubiquitous [Monomial.var v] is an array load *)
let var_cache = Atomic.make ([||] : t array)
let var_lock = Mutex.create ()

let of_var_id id =
  let cache = Atomic.get var_cache in
  if id < Array.length cache then cache.(id)
  else
    Mutex.protect var_lock (fun () ->
        let cache = Atomic.get var_cache in
        if id < Array.length cache then cache.(id)
        else begin
          let n = Symtab.size () in
          let fresh =
            Array.init n (fun i ->
                if i < Array.length cache then cache.(i)
                else hashcons (mk [| i; 1 |]))
          in
          Atomic.set var_cache fresh;
          fresh.(id)
        end)

let var ?(exp = 1) name =
  if exp <= 0 then invalid_arg "Monomial.var: non-positive exponent";
  if String.length name = 0 then invalid_arg "Monomial.var: empty name";
  let id = Symtab.intern name in
  if exp = 1 then of_var_id id else hashcons (mk [| id; exp |])

let of_list bindings =
  match bindings with
  | [] -> one
  | bindings ->
    let arr =
      Array.of_list
        (List.map
           (fun (v, e) ->
             if e < 0 then invalid_arg "Monomial.of_list: negative exponent";
             (Symtab.intern v, e))
           bindings)
    in
    let rk = Symtab.ranks () in
    Array.sort (fun (a, _) (b, _) -> Int.compare rk.(a) rk.(b)) arr;
    (* single left-to-right pass: duplicates are adjacent after the sort *)
    let out = Array.make (2 * Array.length arr) 0 in
    let k = ref 0 in
    Array.iter
      (fun (id, e) ->
        if !k > 0 && out.(!k - 2) = id then out.(!k - 1) <- out.(!k - 1) + e
        else begin
          out.(!k) <- id;
          out.(!k + 1) <- e;
          k := !k + 2
        end)
      arr;
    (* compact away zero exponents *)
    let nonzero = ref 0 in
    let i = ref 0 in
    while !i < !k do
      if out.(!i + 1) > 0 then incr nonzero;
      i := !i + 2
    done;
    let pairs = Array.make (2 * !nonzero) 0 in
    let j = ref 0 in
    let i = ref 0 in
    while !i < !k do
      if out.(!i + 1) > 0 then begin
        pairs.(!j) <- out.(!i);
        pairs.(!j + 1) <- out.(!i + 1);
        j := !j + 2
      end;
      i := !i + 2
    done;
    if Array.length pairs = 0 then one else hashcons (mk pairs)

let to_list m =
  let n = Array.length m.pairs in
  let rec go i =
    if i >= n then []
    else (Symtab.name_of m.pairs.(i), m.pairs.(i + 1)) :: go (i + 2)
  in
  go 0

let fold f acc m =
  let n = Array.length m.pairs in
  let rec go acc i =
    if i >= n then acc
    else go (f acc (Symtab.name_of m.pairs.(i)) m.pairs.(i + 1)) (i + 2)
  in
  go acc 0

let rec find_from (p : int array) id i n =
  if i >= n then 0 else if p.(i) = id then p.(i + 1) else find_from p id (i + 2) n

let find_id m id = find_from m.pairs id 0 (Array.length m.pairs)

let degree_of v m =
  match Symtab.find v with None -> 0 | Some id -> find_id m id

let mentions v m = degree_of v m > 0

let mentions_id id m = find_id m id > 0

let var_ids m =
  let n = Array.length m.pairs / 2 in
  Array.init n (fun i -> m.pairs.(2 * i))

let var_of_id id =
  if id < 0 || id >= Symtab.size () then
    invalid_arg "Monomial.var_of_id: unknown id";
  of_var_id id

let vars m =
  let n = Array.length m.pairs in
  let rec go i =
    if i >= n then [] else Symtab.name_of m.pairs.(i) :: go (i + 2)
  in
  go 0

(* Graded lexicographic order: total degree first, ties broken
   lexicographically with alphabetically-earlier variables more significant.
   This is a genuine monomial order (compatible with multiplication, with 1
   minimal), which the polynomial division algorithms rely on.  Variable
   comparisons go through the rank snapshot: the relative order of two
   interned variables is append-stable, so results never change as more
   variables are interned. *)
let rec lex (rk : int array) (pa : int array) (pb : int array) i j na nb =
  if i >= na then (if j >= nb then 0 else -1)
  else if j >= nb then 1
  else
    let ra = rk.(pa.(i)) and rb = rk.(pb.(j)) in
    if ra < rb then 1
    else if ra > rb then -1
    else
      let ea = pa.(i + 1) and eb = pb.(j + 1) in
      if ea <> eb then Int.compare ea eb else lex rk pa pb (i + 2) (j + 2) na nb

let compare a b =
  if a == b then 0
  else
    let c = Int.compare a.degree b.degree in
    if c <> 0 then c
    else
      lex (Symtab.ranks ()) a.pairs b.pairs 0 0 (Array.length a.pairs)
        (Array.length b.pairs)

(* [out] trimmed to its first [k] entries *)
let trim (out : int array) k =
  if k = Array.length out then out else Array.sub out 0 k

(* [pa] and [pb] merged into [out] from [k]; returns the length written.
   A variable in both gets the sum of its exponents ([mul]) or, when
   [take_max], the larger one ([lcm]). *)
let rec merge (rk : int array) (pa : int array) (pb : int array)
    (out : int array) take_max i j k na nb =
  if i >= na && j >= nb then k
  else if j >= nb || (i < na && rk.(pa.(i)) < rk.(pb.(j))) then begin
    out.(k) <- pa.(i);
    out.(k + 1) <- pa.(i + 1);
    merge rk pa pb out take_max (i + 2) j (k + 2) na nb
  end
  else if i >= na || rk.(pb.(j)) < rk.(pa.(i)) then begin
    out.(k) <- pb.(j);
    out.(k + 1) <- pb.(j + 1);
    merge rk pa pb out take_max i (j + 2) (k + 2) na nb
  end
  else begin
    let ea = pa.(i + 1) and eb = pb.(j + 1) in
    out.(k) <- pa.(i);
    out.(k + 1) <- (if take_max then Int.max ea eb else ea + eb);
    merge rk pa pb out take_max (i + 2) (j + 2) (k + 2) na nb
  end

let merge_with take_max a b =
  let pa = a.pairs and pb = b.pairs in
  let na = Array.length pa and nb = Array.length pb in
  let out = Array.make (na + nb) 0 in
  mk (trim out (merge (Symtab.ranks ()) pa pb out take_max 0 0 0 na nb))

let mul a b =
  if is_one a then b else if is_one b then a else merge_with false a b

let rec divides_from (rk : int array) (pd : int array) (pm : int array) i j nd
    nm =
  if i >= nd then true
  else if j >= nm then false
  else
    let rd = rk.(pd.(i)) and rm = rk.(pm.(j)) in
    if rd < rm then false
    else if rd > rm then divides_from rk pd pm i (j + 2) nd nm
    else pd.(i + 1) <= pm.(j + 1) && divides_from rk pd pm (i + 2) (j + 2) nd nm

let divides d m =
  d.degree <= m.degree
  && divides_from (Symtab.ranks ()) d.pairs m.pairs 0 0 (Array.length d.pairs)
       (Array.length m.pairs)

(* the pairs of [src] from [i] copied into [out] from [k]; returns the
   length written *)
let rec copy_pairs (src : int array) (out : int array) i k n =
  if i >= n then k
  else begin
    out.(k) <- src.(i);
    out.(k + 1) <- src.(i + 1);
    copy_pairs src out (i + 2) (k + 2) n
  end

(* [pm] over [pd] written into [out] from [k]: the length written, or -1
   when [pd] does not divide [pm] *)
let rec div_into (rk : int array) (pm : int array) (pd : int array)
    (out : int array) i j k nm nd =
  if j >= nd then copy_pairs pm out i k nm
  else if i >= nm then -1
  else
    let rm = rk.(pm.(i)) and rd = rk.(pd.(j)) in
    if rm < rd then begin
      out.(k) <- pm.(i);
      out.(k + 1) <- pm.(i + 1);
      div_into rk pm pd out (i + 2) j (k + 2) nm nd
    end
    else if rm > rd then -1
    else
      let e = pm.(i + 1) - pd.(j + 1) in
      if e < 0 then -1
      else if e = 0 then div_into rk pm pd out (i + 2) (j + 2) k nm nd
      else begin
        out.(k) <- pm.(i);
        out.(k + 1) <- e;
        div_into rk pm pd out (i + 2) (j + 2) (k + 2) nm nd
      end

let div m d =
  if is_one d then Some m
  else if d.degree > m.degree then None
  else begin
    let pm = m.pairs and pd = d.pairs in
    let nm = Array.length pm in
    let out = Array.make nm 0 in
    match div_into (Symtab.ranks ()) pm pd out 0 0 0 nm (Array.length pd) with
    | -1 -> None
    | 0 -> Some one
    | k -> Some (mk (trim out k))
  end

(* the variables of both [pa] and [pb], at the smaller exponent, written
   into [out] from [k]; returns the length written *)
let rec meet (rk : int array) (pa : int array) (pb : int array)
    (out : int array) i j k na nb =
  if i >= na || j >= nb then k
  else
    let ra = rk.(pa.(i)) and rb = rk.(pb.(j)) in
    if ra < rb then meet rk pa pb out (i + 2) j k na nb
    else if ra > rb then meet rk pa pb out i (j + 2) k na nb
    else begin
      out.(k) <- pa.(i);
      out.(k + 1) <- Int.min pa.(i + 1) pb.(j + 1);
      meet rk pa pb out (i + 2) (j + 2) (k + 2) na nb
    end

let gcd a b =
  if is_one a || is_one b then one
  else begin
    let pa = a.pairs and pb = b.pairs in
    let na = Array.length pa and nb = Array.length pb in
    let out = Array.make (Int.min na nb) 0 in
    match meet (Symtab.ranks ()) pa pb out 0 0 0 na nb with
    | 0 -> one
    | k -> mk (trim out k)
  end

let lcm a b =
  if is_one a then b else if is_one b then a else merge_with true a b

let remove_var v m =
  match Symtab.find v with
  | None -> m
  | Some id ->
    if find_id m id = 0 then m
    else begin
      let n = Array.length m.pairs in
      let pairs = Array.make (n - 2) 0 in
      let k = ref 0 in
      let i = ref 0 in
      while !i < n do
        if m.pairs.(!i) <> id then begin
          pairs.(!k) <- m.pairs.(!i);
          pairs.(!k + 1) <- m.pairs.(!i + 1);
          k := !k + 2
        end;
        i := !i + 2
      done;
      if Array.length pairs = 0 then one else mk pairs
    end

let eval env m =
  let n = Array.length m.pairs in
  let rec go acc i =
    if i >= n then acc
    else
      go
        (Z.mul acc (Z.pow (env (Symtab.name_of m.pairs.(i))) m.pairs.(i + 1)))
        (i + 2)
  in
  go Z.one 0

let to_string m =
  if is_one m then "1"
  else
    String.concat "*"
      (List.map
         (fun (v, e) -> if e = 1 then v else Printf.sprintf "%s^%d" v e)
         (to_list m))
