(** Vulnerable code-clone detection (VUDDY-style fingerprinting).

    The substrate that computes ℓ, the set of functions shared between the
    original vulnerable program S and the propagated program T — the input
    the paper assumes from existing clone detectors. *)

open Octo_vm.Isa

(** Abstraction level, mirroring VUDDY's levels. *)
type level =
  | Exact           (** full instruction stream, callee names included *)
  | Abstract_calls  (** each direct call reduced to its arity and whether
                        it has a destination: detects clones whose
                        helpers were renamed during propagation *)

(** [fingerprint ?level f] hashes the normalised body of [f]: the hex MD5
    of [Marshal.to_string (f.nparams, code) [No_sharing]], so equal values
    give equal bytes however they are shared in memory.  At [Exact], [code]
    is [f.code]; at [Abstract_calls], every direct [Call] is masked to keep
    only its arity and whether it has a destination — the callee name, the
    argument operands and the destination register are replaced by
    constants.

    Fingerprints are process-local and never persisted: [Marshal]'s byte
    format may change with the compiler version, so a stored index would
    have to be rebuilt, not reread, by another build. *)
val fingerprint : ?level:level -> func -> string

type clone_pair = {
  s_func : string;
  t_func : string;
  renamed : bool;  (** the clone carries a different name in T *)
}

(** A clone profile: everything ℓ needs from one program, computed once
    — each function's fingerprint at one {!level} and an fp -> names
    index.  Immutable once built. *)
type profile

(** [profile ?level ?digest p] is [p]'s profile from the profile table,
    built on a miss.  The table is bounded (128 profiles, reset when
    full), keyed by (level, {!Octo_vm.Compile.program_digest}), and safe
    under domains; [digest], when given, MUST equal that digest.  A
    caller that needs a program's profile for a whole pass holds the
    returned reference rather than looking it up again. *)
val profile : ?level:level -> ?digest:string -> program -> profile

(** [profile_pair ?level ?sdig ?tdig s t] is [(profile s, profile t)],
    counting one {!Octo_util.Metrics.Cache_hits} when both came from the
    table — one ℓ served from cache. *)
val profile_pair :
  ?level:level -> ?sdig:string -> ?tdig:string -> program -> program -> profile * profile

(** [join sp tp] is ℓ of the two profiled programs: every function of
    [sp] whose fingerprint occurs in [tp], matched to the same-name clone
    when there is one, sorted. *)
val join : profile -> profile -> clone_pair list

(** [profile_fp p name] is the fingerprint of function [name]. *)
val profile_fp : profile -> string -> string option

(** [profile_has_fp p fp] holds when some function of [p] has
    fingerprint [fp]. *)
val profile_has_fp : profile -> string -> bool

(** [profile_fingerprints p] is the fingerprint of every function of [p],
    one per function, so equal bodies repeat. *)
val profile_fingerprints : profile -> string list

(** [shared_functions ?level s t] computes ℓ: every function of [s] whose
    fingerprint also occurs in [t]; same-name matches preferred.  Profiles
    both programs afresh. *)
val shared_functions : ?level:level -> program -> program -> clone_pair list

(** [shared_functions_cached ?level ?sdig ?tdig s t] is {!shared_functions}
    over the table's profiles ({!profile_pair}): each program is
    fingerprinted once while its profile stays in the table, whichever
    pairs it takes part in.  [sdig]/[tdig] are the programs'
    {!Octo_vm.Compile.program_digest} values when already computed.  The
    pipeline's hot path; safe under domains. *)
val shared_functions_cached :
  ?level:level -> ?sdig:string -> ?tdig:string -> program -> program -> clone_pair list

(** [ell_names pairs] is ℓ as T-side function names — the form the
    OCTOPOCS pipeline consumes. *)
val ell_names : clone_pair list -> string list

(** [is_vulnerable_clone_present s t ~vuln_func] asks whether T contains a
    clone of S's known-vulnerable function: one lookup in each program's
    {!profile}. *)
val is_vulnerable_clone_present :
  ?level:level -> program -> program -> vuln_func:string -> bool
