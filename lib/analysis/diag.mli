(** Structured diagnostics: the common currency of the analysis passes.

    Every finding carries a severity, a stable machine-readable code
    (e.g. ["wf.use-before-def"], ["width.overflow"], ["lint.dead-cell"]),
    a location inside the artifact being analyzed, and a human-readable
    message.  [Error] findings make [polysynth --lint] fail; [Warning]
    and [Info] findings are reported but do not affect the exit code. *)

type severity = Error | Warning | Info

type location =
  | Program  (** the decomposition as a whole *)
  | Binding of string  (** a named building block of a {!Prog.t} *)
  | Output of string  (** an output of a program or netlist *)
  | Cell of int  (** a cell id of a {!Netlist.t} *)

type t = {
  severity : severity;
  code : string;  (** stable, dot-separated: ["pass.finding"] *)
  location : location;
  message : string;
}

val error : code:string -> location -> string -> t
val warning : code:string -> location -> string -> t
val info : code:string -> location -> string -> t

val compare : t -> t -> int
(** Most severe first; then by code, location and message — a stable
    presentation order. *)

val has_errors : t list -> bool

val to_string : t -> string
(** One line: [error[wf.use-before-def] binding d2: ...]. *)

val to_json : t -> string
(** One object: [{"severity":..,"code":..,"location":..,"message":..}]. *)

val json_string : string -> string
(** An escaped JSON string literal — the project's one JSON string
    escaper, shared by the engine trace and the benchmark files. *)
