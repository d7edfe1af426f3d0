(** The batch driver: every verification run goes through one loop,
    {!run_stream}, that pulls jobs lazily, runs their attempts on one of
    three executors (inline, worker domains or forked children) and
    settles, retries or quarantines each; {!run_all} collects a fixed
    batch over it. *)

open Verdict
open Pipeline
open Record

(** A batch-verification work item: one (S, T, PoC) pair plus a caller
    label (e.g. the registry index) used to key the result. *)
type job

(** [job ~label ~s ~t ~poc ()] builds a batch item; [?ell] overrides clone
    detection as in {!Pipeline.run}, [?config] overrides the batch-level
    configuration for this item only (used by the chaos harness to give
    every job its own injector).  The job owns an empty
    {!Pipeline.products} record that its attempts fill and reuse, in
    every run it takes part in; S and T must not be edited in place
    while the job is alive. *)
val job :
  ?ell:string list ->
  ?config:config ->
  label:string ->
  s:Octo_vm.Isa.program ->
  t:Octo_vm.Isa.program ->
  poc:string ->
  unit ->
  job

(** [job_label j] is the caller label the job was built with. *)
val job_label : job -> string

(** [job_products j] is the {!Pipeline.products} record [j] owns, e.g.
    to {!Pipeline.seed_ell} it. *)
val job_products : job -> products

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

(** [run_all ?config ?jobs ?retries ?isolate ?limits ?pre_run
    ?on_settle batch] verifies every pair of [batch] and returns one
    labelled report per input job, in input order.  It is a collector over
    {!run_stream}, in both isolation modes: a cursor over [batch] feeds the
    stream with a window of [jobs] (after the core-count clamp), so
    [jobs <= 1] (the default) runs serially in the calling domain, or one
    child at a time under [~isolate:Processes].  A job run again (a
    second call over the same batch, or a job listed twice) reuses the
    products its earlier runs built in this process.

    Crash isolation: a job whose worker raises — after [retries] (default
    0) additional attempts — yields [(label, Failure "worker crashed:
    ...")], or [Failure "worker stalled: ..."] for the injected stall
    site.  One crashing job never discards its batch-mates' work.  A
    worker that truly wedges is bounded only by its cooperative deadline
    ([config.deadline_s]) in Domain mode — a domain cannot be killed —
    and by the parent's deadline-kill under [~isolate:Processes].

    [on_settle label report] fires exactly once per job, in
    completion order, from the calling domain in every mode; [run_all]
    returns only after every callback finishes.  (A journaled run goes
    through {!run_stream} instead, via [Octo_report.Runlog].)

    [limits] bounds each child under [~isolate:Processes] (ignored in
    Domain mode, where no rlimit can be scoped to one job).
    [pre_run job] runs in the worker (the child, under process
    isolation) just before the job's pipeline — the hook the CLI uses
    to plant a deliberate allocation for sandbox smoke tests. *)
val run_all :
  ?config:config ->
  ?jobs:int ->
  ?retries:int ->
  ?isolate:isolation ->
  ?limits:Octo_util.Sandbox.limits ->
  ?pre_run:(job -> unit) ->
  ?on_settle:(string -> report -> unit) ->
  job list ->
  (string * report) list

(** Summary of one {!run_stream} invocation. *)
type stream_stats = {
  st_pulled : int;  (** jobs pulled from the source *)
  st_settled : int;  (** jobs that produced a verdict ([on_settle] fired) *)
  st_quarantined : int;  (** jobs handed to [on_quarantine] *)
  st_peak_in_flight : int;  (** high-water mark of concurrently held jobs *)
  st_deferrals : int;
      (** always 0: the admission window is fixed, so nothing defers.
          Kept only because the benchmark harness reads it. *)
}

(** [run_stream ?config ?jobs ?retries ?window ?on_settle ?on_quarantine
    next] verifies a stream of jobs pulled lazily from [next] — the
    corpus-scale runner.  The batch is never materialized: [next ()] is
    called (from the calling domain only) each time the admission window
    has a free slot, so peak memory is bounded by [window] (default
    [max 4 (2 * jobs)]) in-flight jobs, not by the corpus size.

    One loop in the calling domain drives every mode: admit, pull, start
    an attempt, await any completion, then settle, retry or exhaust.  Only
    the executor differs.  Domain isolation with [jobs <= 1] (after the
    core-count clamp) runs each attempt inline with a window of 1, so the
    next job is pulled only after the previous one has settled, and no
    domain is ever spawned.  More jobs run attempts on worker domains the
    executor spawns and joins.  [~isolate:Processes] runs each attempt in
    a forked child.

    Probe sharing: each worker in this process (the inline loop, each
    worker domain) holds the {!Pipeline.probe} of its last attempt and
    {!Pipeline.verify}s its next attempt against it when the job's S is
    the same program value and the PoC bytes are equal, so consecutive
    jobs of one S (a scan's fan-out) run S's crash and P1 taint once.
    Every attempt passes its job's {!Pipeline.products}, so a retried
    job reuses what its earlier attempts built; a forked child fills its
    own copy.  Any other job
    builds a fresh probe, which replaces the held one; an attempt that
    raises leaves none; forked children hold none.  Reports equal those
    of independent {!Pipeline.run} calls, metrics aside.

    A job whose attempt raises (or whose child dies) gets [retries] extra
    attempts; each retried attempt sleeps a capped exponential backoff
    with deterministic jitter ({!Octo_util.Pool.backoff_delay}) before
    it runs, and a retry is admitted ahead of any fresh pull.  The
    attempt-level chaos sites ([worker-crash], [worker-stall], and under
    processes [child-segv] and [child-oom-kill]) are drawn by the loop
    from the job's injector before each attempt starts, so every retry
    advances the stream in every mode.  A job still failing after the
    budget is handed to [on_quarantine] (when given) instead of settling
    — poison pairs are moved aside, never fail the batch; without
    [on_quarantine] they settle as [Failure "worker crashed/stalled: ..."]
    like {!run_all}.

    Wedged workers are bounded by the per-job cooperative deadline
    ([config.deadline_s]) and, under [~isolate:Processes], by the
    parent's deadline-kill.  A job whose budget runs out on a stall is
    counted in [Metrics.Pool_stalls] and the telemetry [stalls] tally.

    [on_settle job report] and [on_quarantine q] fire exactly once per
    job, from the calling domain in every mode, in completion order.

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
    [Rung] naming the death.  Memory is bounded statically: at most
    [window] children, each under [limits.as_mb], plus the parent.
    [pre_run job] runs where the attempt runs (the child, under process
    isolation) just before the pipeline.

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
  ?pre_run:(job -> unit) ->
  ?on_settle:(job -> report -> unit) ->
  ?on_quarantine:(quarantine -> unit) ->
  (unit -> job option) ->
  stream_stats

(** [stream_of_list xs] wraps a pre-materialized list (of jobs, or of
    any other items a driver pulls) as a pull cursor for {!run_stream} —
    the scan pipeline's bridge from a finite candidate set to
    the streaming runner.  Thread-safe. *)
val stream_of_list : 'a list -> unit -> 'a option
