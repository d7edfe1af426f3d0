(** Clone-detection front-end: retrieving (S, T) candidates.

    {!Clone} decides whether two functions are identical clones; this
    module answers the retrieval question that precedes it at corpus
    scale (the VUDDY workflow): given one known-vulnerable function of S,
    which target programs of a corpus link an exact clone of it?  Each
    hit is verified by the OCTOPOCS pipeline itself, whose preprocessing
    crashes S, takes ℓ and picks ep. *)

open Octo_vm.Isa

type params
(** Detection has no parameters.  [params] and {!default_params} are kept
    only because perfbench's harness passes them to {!index_create} and
    {!confirm}, until ROADMAP item 14 reworks the benchmark. *)

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
    fingerprint.  Outside this module only the benchmark harness names
    it, until ROADMAP item 14. *)
type hit = { h_label : string }

val query : index -> func -> hit list
(** One hit per indexed target that links the probe's exact
    {!Clone.fingerprint}, in the order the targets were added. *)

(** A scan candidate: one hit, with ℓ as the sorted T-side names of
    {!Clone.join}.  The benchmark harness reads its fields, until ROADMAP
    item 14. *)
type candidate = {
  c_s_label : string;
  c_t_label : string;
  c_ell : string list;  (** T-side names, sorted *)
}

val s_crash : ?max_steps:int -> program -> poc:string -> Octo_vm.Interp.crash option
(** Harness-only (ROADMAP item 14): replay S on its own PoC; [None] when
    it does not crash.  Nothing in the library, the CLI or the bench
    calls it: the pipeline's preprocessing crashes S itself. *)

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
(** Harness-only (ROADMAP item 14): the candidate of one hit over fresh
    {!Clone.profile}s of [s] and [t], or [None] when [vuln_func] is not
    in their join, [s_crash] is [None], or no frame of its backtrace lies
    in the join.  [params], [sdig] and [tdig] are unused.  Nothing in the
    library, the CLI or the bench calls it: a scan turns every hit into a
    candidate and leaves those decisions to the pipeline. *)
