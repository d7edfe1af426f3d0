(** OCTOPOCS: verification of propagated vulnerable code by PoC reforming.

    The public entry point of the reproduction, gathered from one module
    per decision:
    - {!Verdict}: the paper's result classes, the report and their
      renderings;
    - {!Pipeline}: the probe of S, the P1-P4 attempt, {!verify}/{!run}
      and the escalated retry (paper §III);
    - {!Record}: content keys, the OPR3/OQR1 journal records and the dump
      order;
    - {!Driver}: {!run_stream}, its executors, and {!run_all}. *)

(** Per-pair causal evidence log (why a verdict came out the way it did);
    see {!Provenance}.  Re-exported here because the library's wrapped
    modules are only reachable through this interface. *)
module Provenance = Provenance

include module type of struct include Verdict end
include module type of struct include Pipeline end
include module type of struct include Record end
include module type of struct include Driver end
