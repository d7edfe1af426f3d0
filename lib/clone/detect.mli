(** Clone-detection front-end: discovering (S, T, ℓ, ep) candidates.

    {!Clone} decides whether two functions are identical clones; this
    module answers the retrieval question that precedes it at corpus
    scale (the VUDDY / VulCoCo workflow): given one known-vulnerable
    function of S, which target programs of a corpus plausibly contain a
    clone of it — and for each plausible pair, what are the ℓ and ep the
    verifier should run with? *)

open Octo_vm.Isa

(** Detection parameters: k-gram length, winnowing window, and the
    probe-side containment threshold [tau_retrieve] that gates index
    hits. *)
type params = {
  shingle_k : int;
  winnow_w : int;
  tau_retrieve : float;
}

val default_params : params
(** [{ shingle_k = 4; winnow_w = 4; tau_retrieve = 0.5 }] *)

val tokens : func -> string list
(** [tokens f] is the normalized token stream: one opcode-shape token per
    instruction, registers renumbered by first occurrence (parameters
    pinned to their slots), callee names reduced to arity + return shape,
    jump targets pc-relative; immediates and data symbols stay concrete
    (on register-canonical MiniVM code the constants are what
    distinguishes template-stamped functions).  Exposed for the property
    tests. *)

val fingerprint_norm : func -> string
(** Digest of the normalized token stream: invariant under register
    renaming and helper renaming; sensitive to any opcode-level or
    constant edit. *)

module ISet : Set.S with type elt = int

val shingles : k:int -> w:int -> func -> ISet.t
(** Winnowed k-gram shingle set over the normalized token stream
    (per-window minima of k-gram hashes).  Deterministic across
    platforms: hashing is the module's own 61-bit FNV, not
    [Hashtbl.hash]. *)

(** Inverted index over target-program functions. *)
type index

val index_create : params -> index

val index_add : index -> label:string -> program -> unit
(** Fingerprint every function of a target program under a corpus label
    and insert its shingles. *)

val index_stats : index -> int * int * int
(** [(programs, functions, postings)] indexed so far. *)

(** A retrieval hit: target function [h_func] of entry [h_label] shares
    fraction [h_score] of the probe's shingles. *)
type hit = { h_label : string; h_func : string; h_score : float }

val query : index -> func -> hit list
(** Hits clearing [tau_retrieve], best score first (label and function
    name as deterministic tiebreaks). *)

(** A confirmed candidate: everything the verifier needs plus the
    filter's evidence.  [c_reachable] is [None] when T's CFG recovery
    failed; it is recorded, never used to reject (a dead entry point is
    the verifier's Type-III case (ii)). *)
type candidate = {
  c_s_label : string;
  c_t_label : string;
  c_vuln_func : string;
  c_hit_func : string;
  c_score : float;  (** the hit's retrieval score ([h_score]) *)
  c_ell : string list;  (** T-side names, sorted *)
  c_ep : string;
  c_reachable : bool option;
}

val s_crash : ?max_steps:int -> program -> poc:string -> Octo_vm.Interp.crash option
(** Replay S on its own PoC; [None] when it does not crash (no candidate
    probed from that S can then be confirmed). *)

val confirm_profiled :
  sp:Clone.profile ->
  tp:Clone.profile ->
  s_label:string ->
  t:program ->
  t_label:string ->
  vuln_func:string ->
  s_crash:Octo_vm.Interp.crash option ->
  hit ->
  candidate option
(** Validity filter over the {!Clone.profile}s [sp]/[tp] of S and [t]: the
    hit survives only if [vuln_func] is an exact clone in [t] ({!Clone.join}
    aligns it; ℓ is that join), ep recovers from S's crash backtrace
    mapped to T-side names, and CFG reachability of ep is recorded.  A
    near-clone (retrieved, not exact) is never confirmed: the scan's
    ground truth is the exact-clone relation, so it could only be a
    false positive. *)

val confirm :
  params ->
  ?sdig:string ->
  ?tdig:string ->
  s:program ->
  s_label:string ->
  t:program ->
  t_label:string ->
  vuln_func:string ->
  s_crash:Octo_vm.Interp.crash option ->
  hit ->
  candidate option
(** {!confirm_profiled} with [s] and [t]'s profiles taken from the
    profile table ({!Clone.profile_pair}); [sdig]/[tdig] forward
    precomputed {!Octo_vm.Compile.program_digest} values to the table
    lookup.  [params] is unused: confirmation has no threshold.  A
    caller confirming many hits over the same programs can hold the
    profiles and call {!confirm_profiled} instead. *)
