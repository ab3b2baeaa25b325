module Parse = Polysynth_poly.Parse

type error = [ `Parse of string ]

exception Parse_error of string

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let is_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let program_exn text =
  let entries =
    String.split_on_char '\n' text
    |> List.map strip_comment
    |> List.concat_map (String.split_on_char ';')
    |> List.filter (fun s -> String.trim s <> "")
  in
  let parse_entry chunk =
    match String.index_opt chunk '=' with
    | None -> raise (Parse_error ("missing '=' in: " ^ String.trim chunk))
    | Some i ->
      let name = String.trim (String.sub chunk 0 i) in
      let rhs = String.sub chunk (i + 1) (String.length chunk - i - 1) in
      if not (is_ident name) then
        raise (Parse_error ("bad definition name: " ^ name));
      let expr =
        match Parse.poly rhs with
        | Ok poly -> Expr.of_poly poly
        | Error (`Parse msg) -> raise (Parse_error (name ^ ": " ^ msg))
      in
      (name, expr)
  in
  let defs = List.map parse_entry entries in
  if defs = [] then raise (Parse_error "empty program");
  (* duplicate, self-reference and forward-reference checks *)
  let rec check_scope seen = function
    | [] -> ()
    | (name, expr) :: rest ->
      if List.mem name seen then
        raise (Parse_error ("duplicate definition of " ^ name));
      if List.mem name (Expr.vars expr) then
        raise (Parse_error (name ^ " refers to itself"));
      List.iter
        (fun v ->
          let defined_later = List.mem_assoc v rest in
          if defined_later && not (List.mem v seen) then
            raise (Parse_error ("forward reference to " ^ v ^ " in " ^ name)))
        (Expr.vars expr);
      check_scope (name :: seen) rest
  in
  check_scope [] defs;
  let referenced =
    List.concat_map (fun (_, e) -> Expr.vars e) defs
    |> List.sort_uniq String.compare
  in
  let bindings, outputs =
    List.partition (fun (name, _) -> List.mem name referenced) defs
  in
  if outputs = [] then
    raise (Parse_error "program has no outputs (every name is referenced)");
  { Prog.bindings; outputs }

let program text =
  try Ok (program_exn text) with Parse_error msg -> Error (`Parse msg)
