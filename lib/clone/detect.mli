(** Clone-detection front-end: discovering (S, T, ℓ, ep) candidates.

    {!Clone} decides whether two functions are identical clones; this
    module answers the retrieval question that precedes it at corpus
    scale (the VUDDY workflow): given one known-vulnerable function of S,
    which target programs of a corpus link an exact clone of it — and for
    each such pair, what are the ℓ and ep the verifier should run with? *)

open Octo_vm.Isa

type params
(** Detection has no parameters.  [params] and {!default_params} are kept
    only because perfbench's harness passes them to {!index_create} and
    {!confirm}; the next change to the benchmark drops them. *)

val default_params : params

(** Exact-fingerprint index: each {!Clone.fingerprint} of the indexed
    targets' functions maps to the labels of the targets that link it. *)
type index

val index_create : params -> index

val index_add_profile : index -> label:string -> Clone.profile -> unit
(** Insert every distinct fingerprint of a target's {!Clone.profile}
    under the target's corpus label. *)

val index_add : index -> label:string -> program -> unit
(** {!index_add_profile} over a fresh profile of the program. *)

val index_stats : index -> int * int * int
(** [(programs, functions, postings)] indexed so far; a posting is one
    (fingerprint, target) entry. *)

(** A retrieval hit: corpus entry [h_label] links the probe's exact
    fingerprint. *)
type hit = { h_label : string }

val query : index -> func -> hit list
(** One hit per indexed target that links the probe's exact
    {!Clone.fingerprint}, in the order the targets were added: the hits
    are exactly the scan's ground-truth positives for that probe. *)

(** A confirmed candidate: everything the verifier needs plus the
    filter's evidence.  [c_reachable] is [None] when T's CFG recovery
    failed; it is recorded, never used to reject (a dead entry point is
    the verifier's Type-III case (ii)). *)
type candidate = {
  c_s_label : string;
  c_t_label : string;
  c_vuln_func : string;
  c_hit_func : string;
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
    mapped to T-side names, and CFG reachability of ep is recorded. *)

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
(** {!confirm_profiled} over fresh {!Clone.profile}s of [s] and [t].
    [params] is unused, and so are [sdig]/[tdig]: they once carried
    program digests to a process-wide profile table, and stay only
    because the benchmark harness still passes them, until the benchmark
    is reworked (ROADMAP item 14).  A caller confirming many hits over the
    same programs holds the profiles and calls {!confirm_profiled}
    instead. *)
