type severity = Error | Warning | Info

type location =
  | Program
  | Binding of string
  | Output of string
  | Cell of int

type t = {
  severity : severity;
  code : string;
  location : location;
  message : string;
}

let make severity ~code location message = { severity; code; location; message }
let error = make Error
let warning = make Warning
let info = make Info

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let location_label = function
  | Program -> "program"
  | Binding n -> "binding " ^ n
  | Output n -> "output " ^ n
  | Cell i -> Printf.sprintf "cell %d" i

let compare a b =
  let c = Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.location b.location in
      if c <> 0 then c else String.compare a.message b.message

let has_errors = List.exists (fun d -> d.severity = Error)

let to_string d =
  Printf.sprintf "%s[%s] %s: %s"
    (severity_label d.severity)
    d.code
    (location_label d.location)
    d.message


let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json d =
  Printf.sprintf {|{"severity":%s,"code":%s,"location":%s,"message":%s}|}
    (json_string (severity_label d.severity))
    (json_string d.code)
    (json_string (location_label d.location))
    (json_string d.message)
