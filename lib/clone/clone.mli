(** Vulnerable code-clone detection (VUDDY-style fingerprinting).

    The substrate that computes ℓ, the set of functions shared between the
    original vulnerable program S and the propagated program T — the input
    the paper assumes from existing clone detectors. *)

open Octo_vm.Isa

(** [fingerprint f] hashes the whole body of [f], callee names included
    (VUDDY's exact level): the hex MD5 of
    [Marshal.to_string (f.nparams, f.code) [No_sharing]], so equal values
    give equal bytes however they are shared in memory.

    Fingerprints are process-local and never persisted: [Marshal]'s byte
    format may change with the compiler version, so a stored index would
    have to be rebuilt, not reread, by another build. *)
val fingerprint : func -> string

type clone_pair = {
  s_func : string;
  t_func : string;
  renamed : bool;  (** the clone carries a different name in T *)
}

(** A clone profile: everything ℓ needs from one program, computed once
    — each function's fingerprint and an fp -> names index.  Immutable
    once built. *)
type profile

(** [profile p] fingerprints every function of [p].  A caller that needs
    a program's profile for a whole pass (a scan) holds it rather than
    building it again. *)
val profile : program -> profile

(** [join sp tp] is ℓ of the two profiled programs: every function of
    [sp] whose fingerprint occurs in [tp], matched to the same-name clone
    when there is one, sorted. *)
val join : profile -> profile -> clone_pair list

(** [profile_fp p name] is the fingerprint of function [name]. *)
val profile_fp : profile -> string -> string option

(** [profile_fingerprints p] is the fingerprint of every function of [p],
    one per function, so equal bodies repeat. *)
val profile_fingerprints : profile -> string list

(** [shared_functions s t] computes ℓ: every function of [s] whose
    fingerprint also occurs in [t]; same-name matches preferred.  Profiles
    both programs afresh. *)
val shared_functions : program -> program -> clone_pair list

(** [ell_names pairs] is ℓ as T-side function names — the form the
    OCTOPOCS pipeline consumes. *)
val ell_names : clone_pair list -> string list
