(** Regeneration of every table and figure of the paper's evaluation, plus
    the ablation studies DESIGN.md calls out.  Each function both returns
    structured rows (for tests) and renders aligned text (for the bench
    harness and the [experiments] executable). *)

(** {1 Table 14.1 — motivating example operator counts} *)

type counts_row = { scheme : string; mults : int; adds : int }

val table_14_1_rows : unit -> counts_row list
(** Direct / Horner / factoring+CSE / proposed on the 3-polynomial
    motivating system.  Direct and Horner are counted without sharing, the
    CSE-based schemes on their shared DAGs, as in the paper. *)

val table_14_2_rows : unit -> counts_row list
(** Initial (direct) and final (proposed) operator counts of the
    Algorithm 7 walk-through system. *)

(** {1 Table 14.3 — benchmark comparison} *)

type bench_row = {
  name : string;
  characteristics : string;  (** "vars/deg/m" *)
  num_polys : int;
  base_area : int;
  base_delay : float;
  prop_area : int;
  prop_delay : float;
  area_improvement_pct : float;
  delay_improvement_pct : float;
}

val table_14_3_rows : ?names:string list -> unit -> bench_row list
(** One row per benchmark (default: all eight of the paper). *)

(** {1 Figure 14.1 — the representation data structure} *)

val fig_14_1_dump : unit -> string
(** Representation lists of every polynomial of the Table 14.2 system, with
    the selected combination marked. *)

(** {1 Ablations} *)

type ablation_row = { variant : string; area : int; delay : float; ops : int }

val ablation_rows : ?names:string list -> unit -> (string * ablation_row list) list
(** Per benchmark: area of each pipeline variant in isolation (direct,
    Horner, factor+CSE baseline, per-polynomial search only, each
    integrated ordering, and the full proposed flow). *)

(** {1 Extended studies (beyond the paper)} *)

val strategy_rows : ?names:string list -> unit -> (string * ablation_row list) list
(** Greedy vs. kernel-cube-matrix extraction baselines per benchmark. *)

val objective_rows : ?names:string list -> unit -> (string * ablation_row list) list
(** The proposed flow optimized for area, delay, power and raw operator
    count (on the small benchmarks by default). *)

val schedule_rows :
  ?names:string list -> unit -> (string * (string * int) list) list
(** Latency of the proposed decomposition under different resource budgets
    (multipliers x adders), per benchmark. *)

val extended_rows : unit -> bench_row list
(** Table 14.3-style comparison over the extended workload suite
    (FIR8, Cheb5, Lighting, Biquad). *)

val mcm_rows : ?names:string list -> unit -> (string * ablation_row list) list
(** The proposed decomposition before and after lowering constant
    multiplications to shared shift-add networks (MCM). *)

val render_schedule : (string * (string * int) list) list -> string

(** {1 Rendering} *)

val render_counts : title:string -> counts_row list -> string
val render_table_14_3 : bench_row list -> string
val render_named_ablation : title:string -> (string * ablation_row list) list -> string
(** One block per group, headed by [title]: the ablation, strategy,
    objective and MCM studies all print through it. *)
