(** The verdict of one pair — the paper's result classes — and the
    report that carries it with every intermediate artifact, plus their
    renderings.

    The three aliases name the libraries the report's fields come from. *)

module Taint = Octo_taint.Taint
module Directed = Octo_symex.Directed
module Metrics = Octo_util.Metrics

(** Why a vulnerability was proven not triggerable — the paper's
    verification cases (ii), (iii) and the constraint-conflict outcomes. *)
type not_triggerable_reason =
  | Ep_not_called
      (** the shared entry function is never called in T (case ii) *)
  | Program_dead
      (** no feasible path reaches ℓ (case iii) *)
  | Constraint_conflict of int
      (** bunch bytes or replayed ep arguments conflict with T's own path
          constraints at the given ep entry (1-based) — e.g. a downstream
          patch guard or a hardcoded argument *)
  | Unsat_model
      (** the combined constraint store admits no concrete input *)

type poc_type =
  | Type_I   (** the original PoC's guiding input already fits T *)
  | Type_II  (** the guiding input had to be reformed *)

type verdict =
  | Triggered of { poc' : string; ptype : poc_type }
      (** the reformed PoC crashes T inside ℓ *)
  | Not_triggerable of not_triggerable_reason
  | Failure of string
      (** tool error (e.g. CFG recovery), not a verification result *)

(** Full pipeline report: the verdict plus every intermediate artifact, so
    failed runs remain debuggable. *)
type report = {
  verdict : verdict;
  ep : string;                     (** chosen entry point of ℓ *)
  ell : string list;               (** shared functions (T-side names) *)
  bunches : Taint.bunch list;      (** P1 crash primitives *)
  taint : Taint.result option;
  symex : Directed.stats option;
  degradations : string list;
      (** degradations applied to produce this verdict, in order
          (["dynamic-cfg"], ["symex-escalate"]); empty for a clean
          first-attempt run *)
  elapsed_s : float;
  metrics : Metrics.snapshot option;
      (** per-pair metrics delta (counters and per-phase latency histogram)
          recorded by the domain that ran this pair, when collection was
          enabled ({!Octo_util.Metrics.enable} / [--metrics]); [None]
          otherwise.  Persisted by {!Record.encode_result} behind a presence
          flag. *)
  provenance : Provenance.t option;
      (** per-pair causal evidence log, recorded when collection was
          enabled ({!Provenance.enable} / [--provenance]); [None]
          otherwise.  Persisted as an optional tail field of the OPR3
          record (a record written with collection off ends before it and
          decodes with [None]) and rendered by {!explain_report}. *)
}

val pp_reason : Format.formatter -> not_triggerable_reason -> unit
val pp_verdict : Format.formatter -> verdict -> unit

(** [pp_verdict_prov prov ppf v] is {!pp_verdict} upgraded in place by
    provenance: a [Constraint_conflict] verdict additionally names the
    conflicting bunch and constraint when a conflict core is available.
    Byte-identical to {!pp_verdict} when [prov] is [None] or carries no
    conflict. *)
val pp_verdict_prov : Provenance.t option -> Format.formatter -> verdict -> unit

(** [explain_report ~label r] renders the deterministic human-readable
    explanation narrative for one verified pair (the [explain]
    subcommand's output): verdict header, per-phase provenance sections,
    the expanded minimized core of the last conflict, the escalated
    retry.  No
    timings or other run-varying data — byte-identical across runs of the
    same pair. *)
val explain_report : label:string -> report -> string

(** [verdict_class v] renders the paper's Table II class:
    ["Type-I"], ["Type-II"], ["Type-III"] or ["Failure"]. *)
val verdict_class : verdict -> string

(** [failure_report msg] builds a minimal report carrying
    [Failure msg] and no artifacts — used for failures that happen outside
    the pipeline proper (crashed worker, exceeded deadline).  Exposed for
    the harnesses. *)
val failure_report : string -> report
