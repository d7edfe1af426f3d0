(** What a run writes down about a pair: the content key that says when
    a journaled verdict may be reused, the OPR3 verdict and OQR1
    quarantine record codecs, what kind of record a journal frame holds,
    and the order a dump lists records in. *)

open Verdict
open Pipeline

(** [content_key ?config ?ell ~s ~t ~poc ()] is the verdict-cache
    key: a hex digest over the canonical content of S and T, the PoC
    bytes, the ℓ override, and every budget/config field that can change
    a verdict ([config.inject] excluded — fault injection perturbs a run,
    not the pair's identity).  A journaled verdict is valid for a later
    invocation iff the keys match; any content or budget change forces a
    re-run. *)
val content_key :
  ?config:config ->
  ?ell:string list ->
  s:Octo_vm.Isa.program ->
  t:Octo_vm.Isa.program ->
  poc:string ->
  unit ->
  string

(** [encode_result ~label ~key r] serializes one settled pair for the
    write-ahead journal ({!Octo_util.Journal}): label, cache key, and the
    full verdict (poc' bytes, degradations, elapsed time).  Pipeline
    artifacts (taint, symex stats, bunches) are not persisted. *)
val encode_result : label:string -> key:string -> report -> string

(** [decode_result payload] is the inverse of {!encode_result}:
    [(label, key, report)], or [None] on any malformed or
    foreign-versioned record, OPR2 records of earlier builds included —
    the decoder never raises. *)
val decode_result : string -> (string * string * report) option

(** A poison-pair quarantine record: a job whose worker crashed or
    stalled on every attempt of its retry budget, moved aside with its
    evidence instead of failing the batch. *)
type quarantine = {
  qlabel : string;
  qkey : string;  (** the job's {!content_key} *)
  qreason : string;  (** ["worker crashed"] or ["worker stalled"] *)
  qmessage : string;  (** printable exception of the final attempt *)
  qbacktrace : string;  (** final attempt's backtrace (may be empty) *)
  qattempts : int;  (** attempts consumed, retries included *)
}

(** [encode_quarantine q] serializes a quarantine record for a run's
    journal, beside its verdict records.  The record carries its own
    version tag (["OQR1"]), so {!decode_result} rejects it cleanly and
    vice versa. *)
val encode_quarantine : quarantine -> string

(** [decode_quarantine payload] is the inverse of {!encode_quarantine};
    [None] on any malformed or foreign-versioned record — never raises. *)
val decode_quarantine : string -> quarantine option

(** One journal frame, decoded: a run's journal holds verdict records,
    quarantine records and OTL1 run-health samples side by side. *)
type record =
  | Verdict_record of string * string * report  (** [(label, key, report)] *)
  | Quarantine_record of quarantine
  | Sample_record of Octo_util.Telemetry.sample

(** [decode_record payload] reads a frame with the decoder its magic
    names; [None] for a malformed frame or one no codec knows.  Never
    raises. *)
val decode_record : string -> record option

(** [compare_labels a b] orders labels for display: numerically when
    both are integers (registry pair "10" after "9"), else as strings. *)
val compare_labels : string -> string -> int

(** [sort_dump entries] orders decoded journal records [(label, key, v)]
    for display: label ({!compare_labels}), then content key as a
    tiebreak.  Records sit in a journal in
    settle order, and one label can appear under several keys across
    resumed runs with changed budgets, so the tiebreak keeps the order
    independent of timing. *)
val sort_dump : (string * string * 'a) list -> (string * string * 'a) list
