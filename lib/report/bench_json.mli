(** The benchmark-trajectory JSON format written by [bench/main.exe --json]
    (the committed [BENCH_*.json] files).

    The schema is one object: [{"schema": "polysynth-bench/1", "mode":
    "quick"|"full", "results": [{"name", "ns_per_run",
    ["cells_eliminated"]}]}].  Emission, a parser for exactly this
    shape, and the validation run by [make bench-json] and the test suite
    all live here so they cannot drift apart. *)

val schema : string
(** ["polysynth-bench/1"]. *)

type entry = {
  name : string;
  ns_per_run : float;
  cells_eliminated : int option;
      (** netlist cells removed by the certificate-guarded simplify pass
          for the entry's benchmark; [None] for entries that do not run
          the pass *)
}

val render : mode:string -> entry list -> string
(** Render the document. *)

exception Malformed of string

val parse_exn : string -> entry list
(** Entries of a rendered document, in order.  Unknown fields (such as the
    baseline/speedup annotations of older committed files) are ignored.
    @raise Malformed when the text is not a rendered bench document. *)

val validate : ?required:string list -> string -> (unit, string) result
(** Check a document: schema tag, at least one result, every [ns_per_run]
    finite and strictly positive (non-zero throughput), every
    [cells_eliminated] a non-negative integer, and all [required] result
    names present. *)
