(** Worker-count and retry-backoff helpers for the batch driver.

    The driver ([Octopocs.run_stream]) owns its workers and its retries;
    this module supplies the two pure policies it shares with the CLI and
    the benches: how many worker domains a requested [--jobs] really gets
    ({!effective_jobs}) and how long a crashed attempt waits before its
    retry ({!backoff_delay}). *)

(** [effective_jobs n] clamps a requested worker count to what the machine
    can actually run in parallel.  Oversubscribing domains is a measured
    pessimization for allocation-heavy work — minor collections are
    stop-the-world across all domains, so extra domains on the same core
    multiply GC synchronizations without adding compute. *)
let effective_jobs n = max 1 (min n (Domain.recommended_domain_count ()))

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
