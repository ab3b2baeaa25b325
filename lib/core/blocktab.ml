module Poly = Polysynth_poly.Poly
module Expr = Polysynth_expr.Expr

type entry = { name : string; poly : Poly.t; def : Expr.t }

(* The table is shared by every representation builder of a system, and a
   memoized store's table is read by engine runs on any domain, so
   find-or-add stays atomic (two callers registering the same divisor must
   agree on its name, and a reader never sees a half-added entry). *)
type t = {
  mutable entries : entry list;
  mutable counter : int;
  avoid : string list;
  lock : Mutex.t;
}

let create ?(avoid = []) () =
  { entries = []; counter = 0; avoid; lock = Mutex.create () }

let find_unlocked tab poly =
  List.find_opt (fun e -> Poly.equal e.poly poly) tab.entries

let taken tab name =
  List.mem name tab.avoid || List.exists (fun e -> e.name = name) tab.entries

let rec next_divisor_name tab =
  tab.counter <- tab.counter + 1;
  let name = Printf.sprintf "d%d" tab.counter in
  if taken tab name then next_divisor_name tab else name

let y2_name tab v =
  let base = "y2_" ^ v in
  let rec go k =
    let name = Printf.sprintf "%s_%d" base k in
    if taken tab name then go (k + 1) else name
  in
  if taken tab base then go 1 else base

let divisor_var tab poly =
  Mutex.protect tab.lock (fun () ->
      match find_unlocked tab poly with
      | Some e -> e.name
      | None ->
        let name = next_divisor_name tab in
        tab.entries <-
          tab.entries @ [ { name; poly; def = Expr.of_poly poly } ];
        name)

let y2_var tab v =
  let poly = Poly.mul (Poly.var v) (Poly.sub (Poly.var v) Poly.one) in
  Mutex.protect tab.lock (fun () ->
      match find_unlocked tab poly with
      | Some e -> e.name
      | None ->
        let name = y2_name tab v in
        let def =
          Expr.mul [ Expr.var v; Expr.sub (Expr.var v) Expr.one ]
        in
        tab.entries <- tab.entries @ [ { name; poly; def } ];
        name)

let bindings tab =
  Mutex.protect tab.lock (fun () ->
      List.map (fun e -> (e.name, e.def)) tab.entries)
