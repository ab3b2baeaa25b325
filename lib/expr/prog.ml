module Z = Polysynth_zint.Zint
module Poly = Polysynth_poly.Poly

type t = {
  bindings : (string * Expr.t) list;
  outputs : (string * Expr.t) list;
}

let name_outputs items =
  List.mapi (fun i x -> (Printf.sprintf "P%d" (i + 1), x)) items

let of_exprs exprs = { bindings = []; outputs = name_outputs exprs }

(* the outputs with every binding substituted away *)
let inline prog =
  let resolved = Hashtbl.create 8 in
  let lookup v = Hashtbl.find_opt resolved v in
  List.iter
    (fun (name, e) -> Hashtbl.replace resolved name (Expr.subst lookup e))
    prog.bindings;
  List.map (fun (name, e) -> (name, Expr.subst lookup e)) prog.outputs

let to_polys prog =
  List.map (fun (name, e) -> (name, Expr.to_poly e)) (inline prog)

let eval prog env =
  let values = Hashtbl.create 8 in
  let extended v =
    match Hashtbl.find_opt values v with Some x -> x | None -> env v
  in
  List.iter
    (fun (name, e) -> Hashtbl.replace values name (Expr.eval extended e))
    prog.bindings;
  List.map (fun (name, e) -> (name, Expr.eval extended e)) prog.outputs

let to_dag prog =
  let dag = Dag.create () in
  let ids = Hashtbl.create 8 in
  let env v = Hashtbl.find_opt ids v in
  List.iter
    (fun (name, e) -> Hashtbl.replace ids name (Dag.add_expr ~env dag e))
    prog.bindings;
  let roots =
    List.map (fun (name, e) -> (name, Dag.add_expr ~env dag e)) prog.outputs
  in
  (dag, roots)

let counts prog =
  let dag, roots = to_dag prog in
  Dag.counts dag ~roots:(List.map snd roots)

let tree_counts prog =
  List.fold_left
    (fun acc (_, e) ->
      let c = Dag.tree_counts e in
      Dag.
        {
          mults = acc.mults + c.mults;
          const_mults = acc.const_mults + c.const_mults;
          adds = acc.adds + c.adds;
        })
    Dag.zero_counts (inline prog)

let pp fmt prog =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (n, e) -> Format.fprintf fmt "%s = %a;@," n Expr.pp e)
    prog.bindings;
  List.iteri
    (fun i (n, e) ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt "%s = %a;" n Expr.pp e)
    prog.outputs;
  Format.fprintf fmt "@]"
