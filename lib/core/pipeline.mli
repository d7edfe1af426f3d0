(** The paper's pipeline (§III): given the original vulnerable program S,
    the propagated program T and a malformed-file PoC that crashes S,
    {!run} decides whether the propagated clone is still triggerable,
    producing a reformed PoC when it is (phases P1-P4), with one escalated
    retry for a verdict lost to a budget. *)

open Verdict

(** [identify_ep ~ell crash] picks [ep]: the bottom-most function of the
    crash backtrace belonging to ℓ — the first ℓ function entered on the
    path to the crash (paper "Preprocessing").  Exposed for testing. *)
val identify_ep : ell:string list -> Octo_vm.Interp.crash -> string option

(** P3's pin ledger: the origin (bunch byte or replayed argument) of every
    constraint bunch placement added to one symbolic state, used to label
    conflict cores.  Filled only while {!Provenance} is on. *)
type pin_ledger = (Provenance.origin * Octo_solver.Expr.cond) list

(** [place_bunches bunches] is P3: the {!Directed.on_ep} callback that pins
    bunch [k]'s bytes and replays its tainted arguments at the [k]-th
    entry of [ep], threading the state's {!pin_ledger} (start it at
    [[]]).  It stops after the last bunch and reports a conflict, with a
    labelled core under provenance, when the pins are unsatisfiable.
    Exposed for testing. *)
val place_bunches : Taint.bunch list -> pin_ledger Directed.on_ep

(** Pipeline configuration.  {!default_config} reproduces the paper's
    setup: context-aware byte-level taint, θ = 120, static CFG only. *)
type config = {
  taint_mode : Taint.mode;
  taint_granularity : Taint.granularity;
  symex : Directed.config;
  dynamic_cfg : bool;
      (** repair CFG-recovery failures by replaying T on the PoC and
          devirtualizing observed indirect-call targets (extension; the
          paper's Idx-15 verifies under this mode) *)
  deadline_s : float option;
      (** wall-clock budget per {!run}, enforced cooperatively inside the
          VM, the symbolic executor and the solver; [None] never expires.
          Expiry yields [Failure "deadline exceeded: ..."], never an
          escaped exception. *)
  inject : Octo_util.Faultinject.t;
      (** deterministic fault injector for the chaos harness
          ({!Octo_util.Faultinject.none} by default) *)
}

val default_config : config

(** P3's model-search node budget.  Concrete runs take the VM's
    {!Octo_vm.Interp.default_max_steps}; both budgets are constants, and
    {!Record.content_key} covers them. *)
val solver_budget : int

(** [rescuable_failure msg] is [true] when [msg] describes a resource
    exhaustion (symex budget, solver budget, deadline) that the escalated
    retry may rescue, as opposed to a semantic fact about the pair.
    Exposed for testing. *)
val rescuable_failure : string -> bool

(** [escalate config] is the config of the escalated retry: θ and the
    symex step budget multiplied by 4, the run budget by 8, every other
    field unchanged.  Exposed for testing. *)
val escalate : config -> config

(** What a job derives from its programs: S's compiled code, T's
    compiled code, ℓ (when the caller gives none) and T's static CFG per
    ep.  A record starts empty and {!verify} fills each product on first
    use; later {!verify} calls given the same record take it from there,
    counting one {!Octo_util.Metrics.Cache_hits} per product served.
    Nothing is process-wide, so the products of a job live and die with
    it.  Every product is immutable; domains racing on one record may
    each build a product, and the first to land is kept and returned to
    all. *)
type products

(** [products ()] is an empty product record. *)
val products : unit -> products

(** [compiled_t pr] is T's compiled code once [pr] holds it.  Exposed
    for testing. *)
val compiled_t : products -> Octo_vm.Compile.compiled option

(** [seed_ell pr ell] makes [ell] [pr]'s ℓ product unless it holds one:
    how a caller that has already joined the pair's clone profiles (a
    scan) hands ℓ over instead of having {!verify} profile S and T again.
    [ell] must be [Clone.ell_names (Clone.shared_functions s t)], order
    included: a different list changes the verdict but not the content
    key, which covers only the [?ell] a job is given. *)
val seed_ell : products -> string list -> unit

(** The S side of a pair, shared across the Ts it is verified against.

    Preprocessing (crash S, pick [ep]) and P1 taint depend only on S, the
    PoC and [ep]; only P2-P4 depend on T.  A probe holds S, the PoC and,
    once a {!verify} has needed them, S's concrete run (the crash and its
    backtrace) and one immutable taint result per
    [(ep, taint_mode, taint_granularity)].  Later {!verify} calls against
    the same probe reuse them, so with {!Octo_util.Metrics} on the S-side
    phases and VM steps are charged to the pair that computed them.

    Under an enabled [config.inject] a probe neither reuses nor stores
    anything: every attempt of a chaos job runs its own S side, so its
    fault schedule does not depend on what ran before it.  A probe is not
    safe to use from two domains at once. *)
type probe

(** [probe ~s ~poc] is a probe of S and the PoC.  It runs nothing. *)
val probe : s:Octo_vm.Isa.program -> poc:string -> probe

(** [reuse_probe held ~s ~poc] is [held] when it is a probe of the same S
    (physically: [s] is the very program value [held] was built on) and
    the same PoC bytes, and a fresh [probe ~s ~poc] otherwise: how a
    stream worker shares S's side across consecutive jobs.  A program
    must not be edited in place while a probe holds it. *)
val reuse_probe : probe option -> s:Octo_vm.Isa.program -> poc:string -> probe

(** [verify ?config ?ell ?products p ~t ()] executes the full pipeline
    for T against probe [p]'s S and PoC, reusing whatever S side [p]
    holds and keeping what it computes.  Its report equals that of {!run}
    on the same S, T and PoC, timings and metrics aside.

    ℓ defaults to the clone-detection result of
    {!Octo_clone.Clone.shared_functions}; pass [?ell] to override (the
    paper assumes ℓ is an input).

    [products] (default: an empty record) holds what the pair derives
    from its programs; it MUST be the record of this S and this T, as a
    job keeps it ({!Driver.job}).

    Does not raise: deadline expiries and injected faults become [Failure]
    verdicts and leave [p] holding nothing.  A rescuable failure is
    retried once under {!escalate}[ config], on the same deadline and
    skipped once it has expired; the retry is recorded as
    ["symex-escalate"] in [degradations], reuses [p] and [products]
    (escalation changes no input of either), and when it fails too the
    first attempt's failure is returned verbatim. *)
val verify :
  ?config:config ->
  ?ell:string list ->
  ?products:products ->
  probe ->
  t:Octo_vm.Isa.program ->
  unit ->
  report

(** [run ?config ?ell ~s ~t ~poc ()] is {!verify} against a fresh
    [probe ~s ~poc] and fresh {!products}: a lone pair shares its S side
    and its products with its own retry only, so every call reports every
    phase it ran. *)
val run :
  ?config:config ->
  ?ell:string list ->
  s:Octo_vm.Isa.program ->
  t:Octo_vm.Isa.program ->
  poc:string ->
  unit ->
  report
