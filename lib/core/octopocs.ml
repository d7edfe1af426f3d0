(* OCTOPOCS: verification of propagated vulnerable code by PoC reforming.
   One module per decision (see octopocs.mli); this one gathers them. *)

module Provenance = Provenance
include Verdict
include Pipeline
include Record
include Driver
