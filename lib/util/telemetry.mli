(** Run-health time-series sampler.

    The streaming driver calls {!tick} at its natural cadence points,
    passing its own counts; at most once per interval a sample —
    throughput, pool health, memory, GC words, and (when {!Metrics} is
    collecting) per-phase latency histograms — is handed to the sink
    {!enable} was given ([Runlog]'s, which encodes it as an [OTL1] record
    of the run's journal, passes it to the CLI's progress meter, or
    both).
    Disabled, every entry point costs one [Atomic.get]. *)

(** What the streaming driver knows at the moment of a tick. *)
type progress = {
  pulled : int;  (** pairs pulled from the source so far *)
  settled : int;  (** pairs settled (verdict journaled or reported) *)
  quarantined : int;  (** pairs given up on after the retry budget *)
  in_flight : int;  (** jobs currently running *)
  window : int;  (** in-flight window bound at this instant *)
  retries : int;  (** crash/stall retries scheduled so far *)
  stalls : int;  (** jobs whose retry budget ran out on a stall *)
  child_rss_kb : int;  (** worst reaped child maxrss, KiB *)
}

type sample = {
  ts_ns : int;  (** monotonic ns since the series began (its first [enable]) *)
  pulled : int;
  settled : int;
  quarantined : int;
  in_flight : int;
  window : int;
  retries : int;  (** crash/stall retries scheduled by the driver *)
  stalls : int;  (** jobs whose retry budget ran out on a stall *)
  backoffs : int;  (** backoff sleeps: one per retry, so equal to [retries] *)
  deferrals : int;
      (** no longer counted (admission has a fixed window): the value of
          the sample [enable ~from] continues, else 0.  The slot stays
          so the [OTL1] layout does not change. *)
  rss_kb : int;  (** parent resident set, KiB (0 if /proc absent) *)
  child_rss_kb : int;  (** running max child maxrss, KiB *)
  minor_words : int;  (** [Gc.quick_stat] minor words, truncated *)
  major_words : int;  (** [Gc.quick_stat] major words, truncated *)
  metrics : Metrics.snapshot option;
      (** aggregate latency histograms at the tick; [None] while
          [Metrics] collection is off *)
}

val enable : ?interval_ns:int -> ?from:sample -> (sample -> unit) -> unit
(** [enable ?interval_ns ?from sink] starts sampling, every
    [interval_ns] (default 100 ms) at most: each sample is passed to
    [sink], under the sampler's lock, so samples reach it one at a time
    and in [ts_ns] order.  With [from] (the last sample
    a resumed run's journal holds) the series continues it: [ts_ns]
    starts at its timestamp, the cumulative counts ([pulled],
    [settled], [quarantined], [retries], [stalls], [backoffs]) add to
    its, and its [deferrals] is carried over unchanged. *)

val disable : unit -> unit
(** Stop sampling and drop the sink.  Idempotent. *)

val is_on : unit -> bool

val tick : (unit -> progress) -> unit
(** Rate-limited sample point.  When enabled and an interval has
    elapsed since the last sample, calls the thunk and emits one
    sample; otherwise (or when disabled) does nothing.  The thunk is
    only evaluated when a sample is actually taken. *)

val sample_now : progress -> unit
(** Unconditional sample (when enabled): the driver calls this once at
    stream end so even a sub-interval run leaves a final cut. *)

(** {1 Codec} *)

val codec_version : string
(** ["OTL1"]. *)

val encode_sample : sample -> string

val decode_sample : string -> sample option
(** Total: [None] on any malformed payload, never raises. *)

(** {1 Process memory} *)

val self_rss_kb : unit -> int
(** Parent resident set in KiB from /proc/self/statm; 0 where /proc is
    absent. *)
