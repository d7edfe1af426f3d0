(** A small fixed-size worker pool over OCaml 5 domains.

    Built for corpus-level parallelism: verifying hundreds of (S, T) pairs
    is embarrassingly parallel, each job being CPU-bound and touching only
    its own state.  The pool spawns [jobs] domains once and feeds them
    through a mutex-guarded queue, so batch after batch reuses the same
    domains instead of paying spawn cost per task.

    The pool itself only runs tasks: {!submit} for fire-and-forget work,
    {!future}/{!await} for results.  Exceptions escaping a raw {!submit}
    task are logged (never silently swallowed) and the worker keeps
    serving.  Retries, crash isolation and fail-fast live one level up, in
    the batch driver ([Octopocs.run_stream]); this module also supplies its
    retry backoff ({!backoff_delay}).  There is no stall watchdog: an OCaml
    domain cannot be killed, so a wedged task can only be bounded by its
    own cooperative deadline or by running it in a forked child.

    Jobs must not share mutable state unless they synchronize themselves;
    the pipeline satisfies this because every [Octopocs.run] builds its own
    stores, states and memories (the one shared structure, the CFG build
    cache, takes its own lock). *)

type task = unit -> unit

(* Run queues are sharded work-stealing style: every worker owns a local
   run queue fed by tasks submitted *from* that worker (speculative
   futures, nested fan-out), while external submitters land on a global
   injection queue.  An idle worker drains its own queue first, then the
   injection queue, then steals from its siblings — so intra-pair
   parallelism spawned by a busy worker spreads to idle domains without
   funnelling every push through one hot mutex.  Each queue has its own
   lock; [lock]/[nonempty] only coordinate sleep and shutdown, with
   [navail] (total queued tasks) deciding whether sleeping is allowed. *)
type t = {
  pool_id : int;
  jobs : int;
  global : task Queue.t;            (* injection queue: external submits *)
  locals : task Queue.t array;      (* per-worker run queues *)
  qlocks : Mutex.t array;           (* 0..jobs-1 guard locals, [jobs] guards global *)
  lock : Mutex.t;                   (* sleep/shutdown coordination *)
  nonempty : Condition.t;
  navail : int Atomic.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let next_pool_id = Atomic.make 0

(* Which pool (by id) and worker slot the current domain belongs to; lets
   [submit] route worker-originated tasks to the worker's own queue. *)
let wid_key : (int * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let pop_queue pool i =
  Mutex.lock pool.qlocks.(i);
  let q = if i = pool.jobs then pool.global else pool.locals.(i) in
  let t = if Queue.is_empty q then None else Some (Queue.pop q) in
  Mutex.unlock pool.qlocks.(i);
  if t <> None then Atomic.decr pool.navail;
  t

(* Take order for worker [id]: own queue, injection queue, steal from
   siblings (cyclically from the next slot, so victims are spread). *)
let take_task pool id =
  match pop_queue pool id with
  | Some _ as t -> t
  | None -> (
      match pop_queue pool pool.jobs with
      | Some _ as t -> t
      | None ->
          let rec steal k =
            if k >= pool.jobs - 1 then None
            else
              match pop_queue pool ((id + 1 + k) mod pool.jobs) with
              | Some _ as t -> t
              | None -> steal (k + 1)
          in
          steal 0)

(* Any-queue scan for non-worker helpers ({!await}): injection queue
   first, then every local queue. *)
let take_any pool =
  match pop_queue pool pool.jobs with
  | Some _ as t -> t
  | None ->
      let rec scan i =
        if i >= pool.jobs then None
        else match pop_queue pool i with Some _ as t -> t | None -> scan (i + 1)
      in
      scan 0

let run_logged task =
  try task ()
  with e ->
    (* A worker must survive any task, but a crash must never be
       invisible: report it with its backtrace before moving on. *)
    let bt = Printexc.get_raw_backtrace () in
    Log.err (fun m ->
        m "Pool: worker task raised %s@.%s" (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt))

let rec worker_loop pool id =
  match take_task pool id with
  | Some task ->
      run_logged task;
      worker_loop pool id
  | None ->
      Mutex.lock pool.lock;
      (* Sleep only when no task exists anywhere; submitters signal while
         holding [lock], so the check-then-wait cannot miss a wakeup. *)
      if Atomic.get pool.navail = 0 && not pool.closed then
        Condition.wait pool.nonempty pool.lock;
      let stop = pool.closed && Atomic.get pool.navail = 0 in
      Mutex.unlock pool.lock;
      if not stop then worker_loop pool id

(** [effective_jobs n] clamps a requested worker count to what the machine
    can actually run in parallel.  Oversubscribing domains is a measured
    pessimization for allocation-heavy work — minor collections are
    stop-the-world across all domains, so extra domains on the same core
    multiply GC synchronizations without adding compute. *)
let effective_jobs n = max 1 (min n (Domain.recommended_domain_count ()))

(** [create ~jobs] spawns a pool of [effective_jobs jobs] worker domains. *)
let create ~jobs =
  let jobs = effective_jobs jobs in
  let pool =
    {
      pool_id = Atomic.fetch_and_add next_pool_id 1;
      jobs;
      global = Queue.create ();
      locals = Array.init jobs (fun _ -> Queue.create ());
      qlocks = Array.init (jobs + 1) (fun _ -> Mutex.create ());
      lock = Mutex.create ();
      nonempty = Condition.create ();
      navail = Atomic.make 0;
      closed = false;
      workers = [||];
    }
  in
  pool.workers <-
    Array.init jobs (fun id ->
        Domain.spawn (fun () ->
            Domain.DLS.set wid_key (Some (pool.pool_id, id));
            worker_loop pool id));
  pool

(** [submit pool task] enqueues a unit task.  Raises [Invalid_argument]
    once the pool is shut down; the closed check and the enqueue happen
    under the coordination lock, so a submit racing an in-flight
    {!shutdown} either lands the task before the close (and it runs:
    workers drain the queues on shutdown) or observes [closed] and raises
    — it can never deadlock or drop the task silently.  A submit from one
    of the pool's own workers lands on that worker's local queue
    (stealable by idle siblings); everyone else lands on the injection
    queue.  Exceptions escaping the task are logged by the worker; wrap
    the task if you need them. *)
let submit pool task =
  Mutex.lock pool.lock;
  if pool.closed then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end
  else begin
    let slot =
      match Domain.DLS.get wid_key with
      | Some (pid, id) when pid = pool.pool_id -> id
      | _ -> pool.jobs
    in
    Mutex.lock pool.qlocks.(slot);
    Queue.add task (if slot = pool.jobs then pool.global else pool.locals.(slot));
    Mutex.unlock pool.qlocks.(slot);
    Atomic.incr pool.navail;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.lock
  end

(** [shutdown pool] drains outstanding tasks and joins every worker.
    Idempotent and safe to race: the worker array is claimed under the
    lock, so concurrent shutdowns join each domain exactly once. *)
let shutdown pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  let workers = pool.workers in
  pool.workers <- [||];
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  Array.iter Domain.join workers

(* ------------------------------------------------------------------ *)
(* Futures with helping await. *)

type 'a fstate = Fpending | Fdone of ('a, exn * Printexc.raw_backtrace) result

type 'a future = {
  flock : Mutex.t;
  fcond : Condition.t;
  mutable fstate : 'a fstate;
}

(** [future pool f] submits [f] and returns a handle to its eventual
    result.  The task's exception (if any) is captured with its backtrace
    and surfaces at {!await} — never through the worker's crash log. *)
let future pool f =
  let fut = { flock = Mutex.create (); fcond = Condition.create (); fstate = Fpending } in
  submit pool (fun () ->
      let r =
        match f () with
        | v -> Stdlib.Ok v
        | exception e -> Stdlib.Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock fut.flock;
      fut.fstate <- Fdone r;
      Condition.broadcast fut.fcond;
      Mutex.unlock fut.flock);
  fut

(** [await pool fut] blocks until [fut] settles, HELPING while it waits:
    as long as the future is pending and any task is queued, the awaiting
    domain pops and runs pool tasks itself.  This makes nested fan-out
    deadlock-free — a worker that spawns futures and awaits them executes
    its own children when no sibling is idle (on a 1-core machine the
    whole construction degenerates to ordinary serial calls).  Sleeping is
    safe only once every queue is empty: the future's task is then
    necessarily running on some domain and will signal completion. *)
let await pool fut =
  let rec go () =
    Mutex.lock fut.flock;
    match fut.fstate with
    | Fdone r ->
        Mutex.unlock fut.flock;
        r
    | Fpending -> (
        Mutex.unlock fut.flock;
        match take_any pool with
        | Some task ->
            run_logged task;
            go ()
        | None ->
            Mutex.lock fut.flock;
            (match fut.fstate with
            | Fpending -> Condition.wait fut.fcond fut.flock
            | Fdone _ -> ());
            Mutex.unlock fut.flock;
            go ())
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The process-shared pool. *)

let shared_ref : t option ref = ref None
let shared_lock = Mutex.create ()

(** [shared ()] is the lazily-created process-global pool, sized to the
    machine ([Domain.recommended_domain_count]) and shut down at exit.
    Intra-pair speculation uses it so every pipeline invocation draws on
    one fixed set of domains instead of spawning per call; batch drivers
    keep creating their own pools, so shared-pool tasks never displace a
    batch's pair tasks. *)
let shared () =
  Mutex.lock shared_lock;
  let p =
    match !shared_ref with
    | Some p -> p
    | None ->
        let p = create ~jobs:(Domain.recommended_domain_count ()) in
        shared_ref := Some p;
        at_exit (fun () -> shutdown p);
        p
  in
  Mutex.unlock shared_lock;
  p

(** [shutdown_shared ()] joins the shared pool's domains (no-op when it
    was never created) and forgets it, so a later {!shared} builds a
    fresh one.  The process sandbox calls this defensively before its
    first fork.  Note the stronger truth on OCaml 5.1: [Unix.fork] is
    refused permanently once any domain has EVER been spawned (the
    check latches — joining does not lift it), so forking drivers must
    run before the process's first domain; this shutdown only helps on
    runtimes that merely require a single-domain process at fork
    time. *)
let shutdown_shared () =
  Mutex.lock shared_lock;
  let p = !shared_ref in
  shared_ref := None;
  Mutex.unlock shared_lock;
  Option.iter shutdown p

(* ------------------------------------------------------------------ *)
(* Crash-retry backoff. *)

(** [backoff_delay ?base_s ?cap_s ~key ~attempt ()] is the capped
    exponential backoff before retry number [attempt] (1-based) of the task
    identified by [key]: [base_s * 2^(attempt-1)], capped at [cap_s], then
    scaled by a jitter factor in [0.5, 1.5) drawn from a splitmix64 stream
    seeded by [(key, attempt)].  Pure — the same (key, attempt) always
    yields the same delay — so retry schedules replay deterministically
    under the chaos harness while still decorrelating batch-mates that
    crash together (distinct keys jitter apart). *)
let backoff_delay ?(base_s = 0.002) ?(cap_s = 0.100) ~key ~attempt () =
  let a = max 1 (min attempt 16) in
  let d = Float.min cap_s (base_s *. Float.of_int (1 lsl (a - 1))) in
  let r = Rng.create (key lxor (attempt * 0x9E3779B9)) in
  let u = Float.of_int (Rng.int r 1_000_000) /. 1e6 in
  d *. (0.5 +. u)

(* Sleep the backoff for retry [attempt] of task [key] and count it. *)
let backoff_sleep ?base_s ?cap_s ~key ~attempt () =
  Metrics.incr Metrics.Pool_backoffs;
  Telemetry.note_backoff ();
  Unix.sleepf (backoff_delay ?base_s ?cap_s ~key ~attempt ())
