(** OCTOPOCS: verification of propagated vulnerable code by PoC reforming.

    The public entry point of the reproduction.  Given the original
    vulnerable program S, the propagated program T and a malformed-file PoC
    that crashes S, {!run} decides whether the propagated clone is still
    triggerable, producing a reformed PoC when it is (paper §III, phases
    P1-P4). *)

module Taint = Octo_taint.Taint
module Directed = Octo_symex.Directed
module Metrics = Octo_util.Metrics

(** Per-pair causal evidence log (why a verdict came out the way it did);
    see {!Provenance}.  Re-exported here because the library's wrapped
    modules are only reachable through this interface. *)
module Provenance = Provenance

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
      (** degradation rungs climbed to produce this verdict, in order
          applied (e.g. ["dynamic-cfg"], ["symex-escalate"]); empty for a
          clean first-attempt run *)
  elapsed_s : float;
  metrics : Metrics.snapshot option;
      (** per-pair metrics delta (counters and per-phase latency histogram)
          recorded by the domain that ran this pair, when collection was
          enabled ({!Octo_util.Metrics.enable} / [--metrics]); [None]
          otherwise.  Persisted by {!encode_result} as an optional tail
          field, so pre-metrics journals stay decodable. *)
  provenance : Provenance.t option;
      (** per-pair causal evidence log, recorded when collection was
          enabled ({!Provenance.enable} / [--provenance]); [None]
          otherwise.  Persisted as an optional OPR3 tail field (pre-OPR3
          journals decode with [None]) and rendered by
          {!explain_report}. *)
}

val pp_reason : Format.formatter -> not_triggerable_reason -> unit
val pp_verdict : Format.formatter -> verdict -> unit

(** [conflict_detail prov] distills the last P3 conflict recorded in
    [prov] into one sentence naming the conflicting bunch bytes (or
    replayed arguments) and the T-side path constraint they clash with;
    [None] when no provenance or no conflict was recorded. *)
val conflict_detail : Provenance.t option -> string option

(** [pp_verdict_prov prov ppf v] is {!pp_verdict} upgraded in place by
    provenance: a [Constraint_conflict] verdict additionally names the
    conflicting bunch and constraint when a conflict core is available.
    Byte-identical to {!pp_verdict} when [prov] is [None] or carries no
    conflict. *)
val pp_verdict_prov : Provenance.t option -> Format.formatter -> verdict -> unit

(** [explain_report ~label r] renders the deterministic human-readable
    explanation narrative for one verified pair (the [explain]
    subcommand's output): verdict header, per-phase provenance sections,
    the expanded minimized core of the last conflict, ladder rungs.  No
    timings or other run-varying data — byte-identical across runs of the
    same pair. *)
val explain_report : label:string -> report -> string

(** [verdict_class v] renders the paper's Table II class:
    ["Type-I"], ["Type-II"], ["Type-III"] or ["Failure"]. *)
val verdict_class : verdict -> string

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
  sym_file_size : int;     (** symbolic input-file bound for P2 *)
  max_steps : int;         (** concrete-run budget (hang detection) *)
  solver_budget : int;     (** model-search node budget for P3 *)
  dynamic_cfg : bool;
      (** repair CFG-recovery failures by replaying T on the PoC and
          devirtualizing observed indirect-call targets (extension; the
          paper's Idx-15 verifies under this mode) *)
  deadline_s : float option;
      (** wall-clock budget per {!run}, enforced cooperatively inside the
          VM, the symbolic executor and the solver; [None] never expires.
          Expiry yields [Failure "deadline exceeded: ..."], never an
          escaped exception. *)
  ladder : bool;
      (** retry rescuable failures (budget/deadline exhaustion) up the
          degradation ladder: escalated symex budgets, then a degraded
          symbolic file size.  On by default; Table II is unaffected at
          default budgets. *)
  inject : Octo_util.Faultinject.t;
      (** deterministic fault injector for the chaos harness
          ({!Octo_util.Faultinject.none} by default) *)
}

val default_config : config

(** [failure_report msg] builds a minimal report carrying
    [Failure msg] and no artifacts — used for failures that happen outside
    the pipeline proper (crashed worker, exceeded deadline).  Exposed for
    the harnesses. *)
val failure_report : ?degradations:string list -> string -> report

(** [rescuable_failure msg] is [true] when [msg] describes a resource
    exhaustion (symex budget, solver budget, deadline) that the degradation
    ladder may rescue, as opposed to a semantic fact about the pair.
    Exposed for testing. *)
val rescuable_failure : string -> bool

(** [ladder_rungs config] is the degradation ladder for [config], mildest
    first: [("symex-escalate", _)] multiplies every symex budget, then
    [("sym-file-degrade", _)] additionally shrinks the symbolic file.
    Exposed for testing. *)
val ladder_rungs : config -> (string * config) list

(** [climb_ladder ~deadline ~attempt r0 rungs] retries the rescuable
    failure [r0] up [rungs].  The deadline is the ONE wall-clock budget
    shared by every rung — a retried rung cannot reset the clock; once it
    expires the climb stops and [r0] stands, recording only the rungs
    actually attempted.  Exposed for testing the deadline × retry
    interaction. *)
val climb_ladder :
  deadline:Octo_util.Deadline.t ->
  attempt:(config -> report) ->
  report ->
  (string * config) list ->
  report

(** [run ?config ?ell ~s ~t ~poc ()] executes the full pipeline.

    ℓ defaults to the clone-detection result of
    {!Octo_clone.Clone.shared_functions}; pass [?ell] to override (the
    paper assumes ℓ is an input).

    Does not raise: deadline expiries and injected faults become [Failure]
    verdicts, and rescuable failures are retried up the degradation ladder
    when [config.ladder] is on (the rungs climbed are recorded in
    [degradations]). *)
val run :
  ?config:config ->
  ?ell:string list ->
  s:Octo_vm.Isa.program ->
  t:Octo_vm.Isa.program ->
  poc:string ->
  unit ->
  report

(** A batch-verification work item: one (S, T, PoC) pair plus a caller
    label (e.g. the registry index) used to key the result. *)
type job

(** [job ~label ~s ~t ~poc ()] builds a batch item; [?ell] overrides clone
    detection as in {!run}, [?config] overrides the batch-level
    configuration for this item only (used by the chaos harness to give
    every job its own injector). *)
val job :
  ?ell:string list ->
  ?config:config ->
  label:string ->
  s:Octo_vm.Isa.program ->
  t:Octo_vm.Isa.program ->
  poc:string ->
  unit ->
  job

(** [content_key ?config ?ell ~s ~t ~poc ()] is the verdict-cache key: a
    hex digest over the canonical content of S and T, the PoC bytes, the ℓ
    override, and every budget/config field that can change a verdict
    ([config.inject] excluded — fault injection perturbs a run, not the
    pair's identity).  A journaled verdict is valid for a later invocation
    iff the keys match; any content or budget change forces a re-run. *)
val content_key :
  ?config:config ->
  ?ell:string list ->
  s:Octo_vm.Isa.program ->
  t:Octo_vm.Isa.program ->
  poc:string ->
  unit ->
  string

(** [job_key ~config j] is {!content_key} for a batch item, under the
    job's own config override when it has one. *)
val job_key : config:config -> job -> string

(** [encode_result ~label ~key r] serializes one settled pair for the
    write-ahead journal ({!Octo_util.Journal}): label, cache key, and the
    full verdict (poc' bytes, degradation rungs, elapsed time).  Pipeline
    artifacts (taint, symex stats, bunches) are not persisted. *)
val encode_result : label:string -> key:string -> report -> string

(** [decode_result payload] is the inverse of {!encode_result}:
    [(label, key, report)], or [None] on any malformed or
    foreign-versioned record — the decoder never raises. *)
val decode_result : string -> (string * string * report) option

(** [is_skipped_report r] recognizes the placeholder [Failure] that
    [run_all ~fail_fast:true] returns for pairs it never handed out. *)
val is_skipped_report : report -> bool

(** How batch/stream drivers isolate one job from its batch-mates.

    [Domains] (the default, the historical behaviour) runs jobs on
    worker domains in this process; crash containment is
    exception-level, so a native fault — a real segfault, or an OOM
    kill — in one job takes down the whole batch.

    [Processes] forks one child per job under optional [setrlimit]
    bounds ({!Octo_util.Sandbox.limits}) and classifies every way the
    child can die (clean verdict, exception, SIGSEGV, OOM, RLIMIT_CPU,
    parent deadline-kill, torn pipe protocol) into a structured
    [Failure] — the blast radius of any fault is one child.  Process
    mode runs single-domain in the parent with process-level
    parallelism instead, and must be the process's first parallel
    work: OCaml 5.1 refuses [Unix.fork] permanently once any domain
    has ever been spawned, so never run a Domain-mode batch before a
    Processes one in the same process.  Verdicts and journal dumps are
    identical to Domain mode by construction. *)
type isolation = Domains | Processes

(** [run_all ?config ?jobs ?retries ?fail_fast ?isolate ?limits ?pre_run
    ?on_settle batch] verifies every pair of [batch] and returns one
    labelled report per input job, in input order.  It is a collector over
    {!run_stream}, in both isolation modes: a cursor over [batch] feeds the
    stream with a window of [jobs] (after the core-count clamp), so
    [jobs <= 1] (the default) runs serially in the calling domain, or one
    child at a time under [~isolate:Processes].

    Crash isolation: a job whose worker raises — after [retries] (default
    0) additional attempts — yields [(label, Failure "worker crashed:
    ...")], or [Failure "worker stalled: ..."] for the injected stall
    site.  One crashing job never discards its batch-mates' work.  A
    worker that truly wedges is bounded only by its cooperative deadline
    ([config.deadline_s]) in Domain mode — a domain cannot be killed —
    and by the parent's deadline-kill under [~isolate:Processes].

    [fail_fast] stops the cursor once any pair settles as a [Failure]:
    pairs it never handed out come back as skipped placeholders
    ({!is_skipped_report}) and are not journaled.

    [on_settle label report] fires exactly once per non-skipped job, in
    completion order, from worker context; [run_all] returns only after
    every callback finishes.  The CLI's write-ahead journaling hooks in
    here.

    [limits] bounds each child under [~isolate:Processes] (ignored in
    Domain mode, where no rlimit can be scoped to one job).
    [pre_run job] runs in the worker (the child, under process
    isolation) just before the job's pipeline — the hook the CLI uses
    to plant a deliberate allocation for sandbox smoke tests. *)
val run_all :
  ?config:config ->
  ?jobs:int ->
  ?retries:int ->
  ?fail_fast:bool ->
  ?isolate:isolation ->
  ?limits:Octo_util.Sandbox.limits ->
  ?pre_run:(job -> unit) ->
  ?on_settle:(string -> report -> unit) ->
  job list ->
  (string * report) list

(** [job_label j] is the caller label the job was built with. *)
val job_label : job -> string

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

(** [encode_quarantine q] serializes a quarantine record for the
    quarantine journal.  The record carries its own version tag (["OQR1"]),
    so {!decode_result} rejects it cleanly and vice versa. *)
val encode_quarantine : quarantine -> string

(** [decode_quarantine payload] is the inverse of {!encode_quarantine};
    [None] on any malformed or foreign-versioned record — never raises. *)
val decode_quarantine : string -> quarantine option

(** Summary of one {!run_stream} invocation. *)
type stream_stats = {
  st_pulled : int;  (** jobs pulled from the source *)
  st_settled : int;  (** jobs that produced a verdict ([on_settle] fired) *)
  st_quarantined : int;  (** jobs handed to [on_quarantine] *)
  st_peak_in_flight : int;  (** high-water mark of concurrently held jobs *)
  st_deferrals : int;
      (** admission-deferral episodes: times the process-mode memory
          controller paused admissions under pressure (always 0 in
          Domain isolation) *)
}

(** [run_stream ?config ?jobs ?retries ?window ?on_settle ?on_quarantine
    next] verifies a stream of jobs pulled lazily from [next] — the
    corpus-scale runner.  The batch is never materialized: [next ()] is
    called (from the dispatching domain only) each time the admission
    window has a free slot, so peak memory is bounded by [window] (default
    [max 4 (2 * jobs)]) in-flight jobs, not by the corpus size.

    A job whose worker raises gets [retries] extra attempts, each preceded
    by a capped exponential backoff with deterministic jitter
    ({!Octo_util.Pool.backoff_delay}).  A job still raising after the
    budget is handed to [on_quarantine] (when given) instead of settling —
    poison pairs are moved aside, never fail the batch; without
    [on_quarantine] they settle as [Failure "worker crashed/stalled: ..."]
    like {!run_all}.

    Wedged workers are bounded by the per-job cooperative deadline
    ([config.deadline_s]) and, under [~isolate:Processes], by the
    parent's deadline-kill.  A job whose budget runs out on a stall is
    counted in [Metrics.Pool_stalls] and the telemetry [stalls] tally.

    [on_settle job report] and [on_quarantine q] fire exactly once per
    job, from worker context, in completion order; [run_stream] returns
    only after every callback has finished.

    With [~isolate:Processes] every job runs in a forked child under
    [limits] ({!Octo_util.Sandbox.limits}); the admission window IS the
    concurrency (one child per admitted job, so the default carries
    over as up to [2 * jobs] live children).  Child deaths — SIGSEGV,
    OOM (the child's own [Out_of_memory] under RLIMIT_AS or a kernel
    OOM SIGKILL), RLIMIT_CPU expiry, parent deadline-kill (a hard
    wall-clock backstop at four times [config.deadline_s] plus one
    second), torn pipe frames — feed the same retry → quarantine ladder
    as Domain-mode crashes, with the classification as the quarantine
    reason ([qreason = "oom"] for memory deaths) or, absent
    [on_quarantine], as a structured [Failure] carrying one provenance
    [Rung] naming the death.  [mem_watermark_mb] arms the
    memory-pressure admission controller: past the watermark (parent
    RSS plus worst observed child RSS) the in-flight window halves and
    admissions defer, counted in [st_deferrals] and recorded as an
    ["admission-deferred"] degradation on the next admitted job.
    [pre_run job] runs in the child just before the pipeline.

    Fork safety: process mode spawns no domains and must run before
    the process's first Domain-mode work — OCaml 5.1 refuses
    [Unix.fork] permanently once any domain has ever been spawned
    (joining does not lift the restriction). *)
val run_stream :
  ?config:config ->
  ?jobs:int ->
  ?retries:int ->
  ?window:int ->
  ?isolate:isolation ->
  ?limits:Octo_util.Sandbox.limits ->
  ?mem_watermark_mb:int ->
  ?pre_run:(job -> unit) ->
  ?on_settle:(job -> report -> unit) ->
  ?on_quarantine:(quarantine -> unit) ->
  (unit -> job option) ->
  stream_stats

(** [stream_of_list jobs] wraps a pre-materialized job list as a pull
    cursor for {!run_stream} — the scan pipeline's bridge from a finite
    confirmed-candidate set to the streaming runner.  Thread-safe. *)
val stream_of_list : job list -> unit -> job option

(** [sort_dump entries] orders decoded journal records [(label, key, v)]
    for display: label (numeric-aware, so registry pair "10" sorts after
    "9"), then content key as a tiebreak.  The tiebreak is what makes a
    merged sharded dump deterministic: shard interleave depends on
    settle order, and one label can appear under several keys across
    resumed runs with changed budgets. *)
val sort_dump : (string * string * 'a) list -> (string * string * 'a) list
