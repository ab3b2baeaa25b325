(* Benchmark-trajectory JSON: emission, a minimal parser for our own
   schema, and the validation used by `make bench-json` and the tests.

   The files written by [bench/main.exe --json] (BENCH_*.json at the repo
   root) record ns/op per stage and per benchmark so that successive PRs
   have a perf trajectory to compare against.  The parser is deliberately
   small: it only has to read what [render] writes (plus whitespace). *)

let schema = "polysynth-bench/1"

type entry = {
  name : string;
  ns_per_run : float;
  cells_eliminated : int option;
}

(* ---- emission ---------------------------------------------------------- *)

let json_string = Polysynth_analysis.Diag.json_string

let render ~mode entries =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": %s,\n" (json_string schema));
  Buffer.add_string b (Printf.sprintf "  \"mode\": %s,\n" (json_string mode));
  Buffer.add_string b "  \"results\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i e ->
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": %s, \"ns_per_run\": %.1f"
           (json_string e.name) e.ns_per_run);
      (match e.cells_eliminated with
       | Some c -> Buffer.add_string b (Printf.sprintf ", \"cells_eliminated\": %d" c)
       | None -> ());
      Buffer.add_string b (if i = n - 1 then "}\n" else "},\n"))
    entries;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* ---- parsing ----------------------------------------------------------- *)

type token = Str of string | Num of float | Punct of char

exception Malformed of string

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '"' then begin
      let b = Buffer.create 16 in
      incr i;
      let rec go () =
        if !i >= n then raise (Malformed "unterminated string");
        match s.[!i] with
        | '"' -> incr i
        | '\\' ->
          if !i + 1 >= n then raise (Malformed "bad escape");
          (match s.[!i + 1] with
           | 'n' -> Buffer.add_char b '\n'
           | 'u' ->
             (* only the control-character escapes we ever emit *)
             if !i + 5 >= n then raise (Malformed "bad \\u escape");
             let code = int_of_string ("0x" ^ String.sub s (!i + 2) 4) in
             Buffer.add_char b (Char.chr code);
             i := !i + 4
           | c -> Buffer.add_char b c);
          i := !i + 2;
          go ()
        | c ->
          Buffer.add_char b c;
          incr i;
          go ()
      in
      go ();
      toks := Str (Buffer.contents b) :: !toks
    end
    else if c = '-' || (c >= '0' && c <= '9') then begin
      let start = !i in
      incr i;
      while
        !i < n
        &&
        let c = s.[!i] in
        (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-'
      do
        incr i
      done;
      match float_of_string_opt (String.sub s start (!i - start)) with
      | Some f -> toks := Num f :: !toks
      | None -> raise (Malformed "bad number")
    end
    else begin
      toks := Punct c :: !toks;
      incr i
    end
  done;
  List.rev !toks

(* Walk the token stream picking up ("schema", value), every
   {"name": ..., "ns_per_run": ...} pair in order, and the optional
   "cells_eliminated" that may follow a pair.  Everything else — such as
   the baseline/speedup fields older committed files carry — is ignored. *)
let parse s =
  let toks = tokenize s in
  let schema_val = ref None in
  let entries = ref [] in
  let pending_name = ref None in
  let rec go = function
    | Str "schema" :: Punct ':' :: Str v :: rest ->
      schema_val := Some v;
      go rest
    | Str "name" :: Punct ':' :: Str v :: rest ->
      pending_name := Some v;
      go rest
    | Str "ns_per_run" :: Punct ':' :: Num x :: rest ->
      (match !pending_name with
       | Some name ->
         entries := { name; ns_per_run = x; cells_eliminated = None } :: !entries;
         pending_name := None
       | None -> raise (Malformed "ns_per_run without a name"));
      go rest
    | Str "cells_eliminated" :: Punct ':' :: Num x :: rest ->
      (match !entries with
       | e :: tl ->
         if Float.of_int (int_of_float x) <> x || x < 0. then
           raise (Malformed "cells_eliminated must be a non-negative integer");
         entries := { e with cells_eliminated = Some (int_of_float x) } :: tl
       | [] -> raise (Malformed "cells_eliminated before any result"));
      go rest
    | _ :: rest -> go rest
    | [] -> ()
  in
  go toks;
  (!schema_val, List.rev !entries)

let parse_exn s =
  match parse s with
  | Some sch, entries when String.equal sch schema -> entries
  | Some sch, _ -> raise (Malformed ("unexpected schema " ^ sch))
  | None, _ -> raise (Malformed "missing schema field")

(* ---- validation -------------------------------------------------------- *)

let validate ?(required = []) s =
  match parse s with
  | exception Malformed msg -> Error ("malformed JSON: " ^ msg)
  | None, _ -> Error "missing \"schema\" field"
  | Some sch, _ when not (String.equal sch schema) ->
    Error (Printf.sprintf "schema %S, expected %S" sch schema)
  | Some _, [] -> Error "no benchmark results"
  | Some _, entries ->
    let bad =
      List.find_opt
        (fun e ->
          String.length e.name = 0
          || (not (Float.is_finite e.ns_per_run))
          || e.ns_per_run <= 0.)
        entries
    in
    (match bad with
     | Some e ->
       Error
         (Printf.sprintf "entry %S has non-positive ns_per_run %f" e.name
            e.ns_per_run)
     | None ->
       let names = List.map (fun e -> e.name) entries in
       let missing =
         List.filter
           (fun r -> not (List.exists (fun n -> String.equal n r) names))
           required
       in
       (match missing with
        | [] -> Ok ()
        | ms -> Error ("missing required results: " ^ String.concat ", " ms)))
