(** The unified synthesis engine — the single entry point for Algorithm 7.

    One {!Config.t} record carries every setting; {!run} executes a
    method under that configuration and returns the synthesis {!report}
    together with a {!Trace.t} recording per-stage wall time, candidate
    counts, cache behaviour, and budget exhaustion.

    Proposed is one flow: build the representation lists, search their
    combinations, build the integrated whole-system variants, and let the
    search's winner and the variants compete under the objective.  The
    baselines are one-line constructions from [Baselines], built afresh
    on every run.

    The engine fans the integrated variants out over OCaml domains; the
    representation build runs on the calling domain in a fixed order.  On
    a single-core host — or with [parallelism = 1] — it follows the exact
    sequential code path, and in both modes it returns the same program.
    A process-wide bounded memo keyed by the polynomial system and ring
    signature caches representation stores and variant lists, so repeated
    runs on one system perform [Represent.build] once.  No setting of one
    run changes another: the engine keeps no process-wide switch, so
    concurrent runs with different configs do not interfere.

    {[
      module Engine = Polysynth_core.Engine

      let config = Engine.Config.default ~width:16
      let report, trace = Engine.synthesize config polys
      let () = print_string (Engine.Trace.to_text trace)
    ]} *)

module Poly := Polysynth_poly.Poly
module Prog := Polysynth_expr.Prog
module Dag := Polysynth_expr.Dag
module Cost := Polysynth_hw.Cost
module Canonical := Polysynth_finite_ring.Canonical
module Equiv := Polysynth_analysis.Equiv
module Simplify := Polysynth_analysis.Simplify

type method_name = Direct | Horner | Factor_cse | Proposed

val method_label : method_name -> string

type report = {
  method_name : method_name;
  prog : Prog.t;
  counts : Dag.counts;  (** post-CSE MULT/ADD counts *)
  cost : Cost.report;  (** estimated hardware area and delay *)
  labels : string list;
      (** chosen representation per polynomial (Proposed only; a single
          variant label when an integrated decomposition won; empty for
          the baselines) *)
  cert : Equiv.cert;
      (** equivalence certificate for [prog] against the source system:
          [Verified] is a proof (canonical forms over [Z_2^m] under a ring
          context, exact identity otherwise), [Refuted] carries a concrete
          counterexample input.  [Unknown "not certified"] when the run
          had [certify = false]. *)
  simplified : Polysynth_analysis.Simplify.outcome option;
      (** outcome of the certificate-guarded netlist simplification pass;
          present only when the run had [Config.simplify = true].  The
          simplified artifact is the outcome's netlist — [prog] itself is
          never rewritten. *)
}

module Config : sig
  type t = {
    width : int;  (** datapath bit-width for the area/delay model *)
    ctx : Canonical.ctx option;  (** bit-vector ring; [None] = exact *)
    model : Cost.model;
    objective : Search.objective;
    parallelism : int;
        (** domains to fan work out over; [0] = auto
            ([Domain.recommended_domain_count ()]); [1] = sequential *)
    time_budget : float option;  (** wall-clock budget, seconds *)
    candidate_budget : int option;
        (** extra candidate evaluations allowed after the mandatory first
            of each stage; shared between search and variants *)
    max_blocks : int option;  (** cap for block discovery *)
    cache : bool;
        (** consult/fill the engine's representation/variant store.  The
            kernelling memo caches a pure function and is always on,
            whatever this says. *)
    certify : bool;
        (** run the equivalence certifier on every selected decomposition
            (a ["<method>/certify"] trace stage); off, reports carry
            [Unknown "not certified"] *)
    simplify : bool;
        (** lower every selected decomposition, run the constant
            analysis over the netlist and the certificate-guarded
            simplify pass on its facts — recorded as
            ["<method>/analyze"] (candidates = cells with a constant
            fact) and ["<method>/simplify"] (candidates = cells
            eliminated) trace stages *)
  }

  val default : width:int -> t
  (** [Min_area] objective, auto parallelism, no budgets, caching on,
      certification on. *)

  val domains : t -> int
  (** The resolved degree of parallelism. *)

  val search_options : ?budget:(unit -> bool) -> t -> Search.options
  (** The corresponding combination-search options; the exhaustive limit
      and sweep count are those of {!Search.default_options}. *)
end

module Trace : sig
  type stage = {
    name : string;  (** e.g. ["proposed/represent"], ["direct/baseline"] *)
    wall : float;  (** seconds *)
    candidates : int;
        (** representations built / combinations evaluated / variants
            considered in this stage *)
  }

  type t = {
    parallelism : int;
    stages : stage list;  (** in execution order *)
    cache_hits : int;  (** memo hits during this run, all tables merged *)
    cache_misses : int;
    cache_tables : (string * int * int) list;
        (** per-table [(name, hits, misses)] split of the totals above:
            ["representation"] (the engine store) and ["kernel"] (the
            kernelling memo).  The counts repeat exactly only at
            parallelism 1: two domains can miss the same polynomial in
            the shared kernel table, so a parallel run's split can vary
            from run to run. *)
    budget_exhausted : bool;
        (** a budget stopped some stage before it finished *)
    certificates : (string * string) list;
        (** per method, the certificate status ("verified" / "refuted" /
            "unknown"), in certification order *)
    wall : float;  (** whole-run wall time, seconds *)
  }

  val to_text : t -> string
  (** Human-readable multi-line rendering. *)

  val pp : Format.formatter -> t -> unit

  val to_json : t -> string
  (** One JSON object: [{"parallelism":..,"wall_ms":..,"cache":
      {"hits":..,"misses":..,"tables":[{"name":..,"hits":..,"misses":..}]},
      "budget_exhausted":..,"certificates":[{"method":..,"status":..}],
      "stages":[{"name":..,"wall_ms":..,"candidates":..}]}]. *)

  val json_string : string -> string
  (** An escaped JSON string literal — for composing larger objects
      around {!to_json}.  The same function as
      [Polysynth_analysis.Diag.json_string]. *)
end

val run : Config.t -> method_name -> Poly.t list -> report * Trace.t

val synthesize : Config.t -> Poly.t list -> report * Trace.t
(** [run config Proposed]. *)

val compare_methods : Config.t -> Poly.t list -> report list * Trace.t
(** All four methods on the same system, reported in declaration order of
    {!method_name} under one merged trace.  Proposed runs first, then the
    three baselines; only Proposed consults the representation store. *)

val verify : ?ctx:Canonical.ctx -> Poly.t list -> Prog.t -> bool
(** Does the program compute the system?  Exact polynomial equality when
    no ring context is given; equality of bit-vector functions (via
    canonical forms) when one is.  A boolean shorthand for
    [Polysynth_analysis.Equiv.certify] with an uncapped size budget. *)

val parallel_map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** The engine's domain-pool map: work-stealing over at most [domains]
    domains (including the caller's), preserving item order.  Falls back
    to [List.map] when [domains <= 1] or fewer than two items. *)

val clear_cache : unit -> unit
(** Empty every engine-owned memo in one place — the
    representation/variant store and the kernelling memo of
    [Polysynth_cse.Kernel] — and reset their hit/miss counters. *)
