(** A small fixed-size worker pool over OCaml 5 domains.

    Built for corpus-level parallelism: verifying hundreds of (S, T) pairs
    is embarrassingly parallel, each job being CPU-bound and touching only
    its own state.  The pool spawns [jobs] domains once and feeds them
    through a mutex-guarded queue, so batch after batch reuses the same
    domains instead of paying spawn cost per task.

    The pool itself only runs fire-and-forget tasks ({!submit}).
    Exceptions escaping a task are logged (never silently swallowed) and
    the worker keeps serving.  Retries, crash isolation and fail-fast live one level up, in
    the batch driver ([Octopocs.run_stream]); this module also supplies its
    retry backoff ({!backoff_delay}).  There is no stall watchdog: an OCaml
    domain cannot be killed, so a wedged task can only be bounded by its
    own cooperative deadline or by running it in a forked child.

    Jobs must not share mutable state unless they synchronize themselves;
    the pipeline satisfies this because every [Octopocs.run] builds its own
    stores, states and memories (the one shared structure, the CFG build
    cache, takes its own lock). *)

type task = unit -> unit

type t = {
  queue : task Queue.t;
  lock : Mutex.t;                   (* guards [queue] and [closed] *)
  nonempty : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

(* Block until a task is queued or the pool is closed and drained. *)
let take_task pool =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.nonempty pool.lock
  done;
  let t = Queue.take_opt pool.queue in
  Mutex.unlock pool.lock;
  t

let run_logged task =
  try task ()
  with e ->
    (* A worker must survive any task, but a crash must never be
       invisible: report it with its backtrace before moving on. *)
    let bt = Printexc.get_raw_backtrace () in
    Log.err (fun m ->
        m "Pool: worker task raised %s@.%s" (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt))

let rec worker_loop pool =
  match take_task pool with
  | Some task ->
      run_logged task;
      worker_loop pool
  | None -> ()

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
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      workers = [||];
    }
  in
  pool.workers <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

(** [submit pool task] enqueues a unit task.  Raises [Invalid_argument]
    once the pool is shut down; the closed check and the enqueue happen
    under the queue lock, so a submit racing an in-flight {!shutdown}
    either lands the task before the close (and it runs: workers drain
    the queue on shutdown) or observes [closed] and raises — it can never
    deadlock or drop the task silently.  Exceptions escaping the task are
    logged by the worker; wrap the task if you need them. *)
let submit pool task =
  Mutex.lock pool.lock;
  if pool.closed then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end
  else begin
    Queue.add task pool.queue;
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
