(* Run-health time-series sampler.

   While enabled, the streaming driver calls [tick] at its natural
   cadence points (each batch of completions, each quiet select-loop
   wakeup); at most once per [interval_ns] a sample is taken — the
   driver's throughput and pool-health counters, parent/child memory,
   GC words, and (when [Metrics] collection is on) the per-phase latency
   histograms — and handed to the sink [enable] was given.  [Runlog]'s
   sink encodes it as an [OTL1] record of the run's one journal file,
   passes it to the CLI's progress meter, or both, so the two read one
   series.

   Costs mirror [Metrics] and [Trace]: disabled, every entry point is a
   single [Atomic.get]; enabled, a non-due [tick] is two atomic loads
   and an int64 compare.  Samples are serialized under one mutex: the
   sample must be a consistent cut, and samples reach the sink one at a
   time, in timestamp order.

   The payload is laid out by [Wire] and decodes totally, and
   timestamps are monotonic nanoseconds relative to [enable], so two
   dumps of the same run are structurally comparable.  [enable ~from]
   continues a resumed run's series: its samples carry on from the last
   recorded timestamp and cumulative counts, so a journal holds one
   series however many runs wrote it. *)

(* Resident set of this process in KiB, from /proc/self/statm (field 2
   is resident pages).  0 where /proc is absent.  The page size comes
   from the [octo_page_size] stub (sandbox_stubs.c). *)
external page_size : unit -> int = "octo_page_size"

let self_rss_kb () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            Scanf.sscanf (input_line ic) " %d %d" (fun _ rss ->
                rss * max 1 (page_size () / 1024))
          with _ -> 0)

(* -- sample type ------------------------------------------------------- *)

(* What the streaming driver knows at the moment of the tick. *)
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
  backoffs : int;  (** backoff sleeps (one per retry) *)
  deferrals : int;
      (** no longer counted: carried over from the resumed series, else 0 *)
  rss_kb : int;  (** parent resident set, KiB (0 if /proc absent) *)
  child_rss_kb : int;  (** running max child maxrss, KiB *)
  minor_words : int;  (** [Gc.quick_stat] minor words, truncated *)
  major_words : int;  (** [Gc.quick_stat] major words, truncated *)
  metrics : Metrics.snapshot option;
      (** aggregate per-phase latency histograms at the tick; [None]
          while [Metrics] collection is off *)
}

(* -- OTL1 codec -------------------------------------------------------- *)

let codec_version = "OTL1"

(* The counters in record order, then the optional metrics snapshot. *)
let encode_sample (s : sample) =
  let b = Buffer.create 256 in
  Wire.put_magic b codec_version;
  List.iter (Wire.put_int b)
    [
      s.ts_ns; s.pulled; s.settled; s.quarantined; s.in_flight; s.window; s.retries;
      s.stalls; s.backoffs; s.deferrals; s.rss_kb; s.child_rss_kb; s.minor_words;
      s.major_words;
    ];
  Wire.put_option b Metrics.write_snapshot s.metrics;
  Buffer.contents b

let decode_sample (s : string) : sample option =
  Wire.decode s (fun r ->
      if Wire.get_magic r 4 <> codec_version then Wire.fail ();
      let ts_ns = Wire.get_int r in
      let pulled = Wire.get_int r in
      let settled = Wire.get_int r in
      let quarantined = Wire.get_int r in
      let in_flight = Wire.get_int r in
      let window = Wire.get_int r in
      let retries = Wire.get_int r in
      let stalls = Wire.get_int r in
      let backoffs = Wire.get_int r in
      let deferrals = Wire.get_int r in
      let rss_kb = Wire.get_int r in
      let child_rss_kb = Wire.get_int r in
      let minor_words = Wire.get_int r in
      let major_words = Wire.get_int r in
      let metrics = Wire.get_option r Metrics.read_snapshot in
      {
        ts_ns;
        pulled;
        settled;
        quarantined;
        in_flight;
        window;
        retries;
        stalls;
        backoffs;
        deferrals;
        rss_kb;
        child_rss_kb;
        minor_words;
        major_words;
        metrics;
      })

(* -- sampler state ----------------------------------------------------- *)

let default_interval_ns = 100_000_000 (* 100 ms *)

let on = Atomic.make false
let lock = Mutex.create ()
let sink : (sample -> unit) ref = ref ignore
let base_ns = ref 0L
let interval = ref default_interval_ns

(* The sample a resumed series continues: new samples carry on from its
   clock and its cumulative counts. *)
let carried : sample option ref = ref None

(* Next tick-due instant, relative ns.  An [Atomic] so the hot non-due
   path never takes the mutex. *)
let next_due = Atomic.make 0

let is_on () = Atomic.get on

let now_rel_ns () = Int64.to_int (Int64.sub (Deadline.monotonic_ns ()) !base_ns)

let enable ?(interval_ns = default_interval_ns) ?from f =
  Mutex.protect lock (fun () ->
      sink := f;
      carried := from;
      let carried_ns = match from with Some c -> c.ts_ns | None -> 0 in
      base_ns := Int64.sub (Deadline.monotonic_ns ()) (Int64.of_int carried_ns);
      interval := max 1 interval_ns;
      Atomic.set next_due 0;
      Atomic.set on true)

let disable () =
  Atomic.set on false;
  Mutex.protect lock (fun () -> sink := ignore)

let take_sample (p : progress) =
  let gc = Gc.quick_stat () in
  let m = if Metrics.is_on () then Some (Metrics.aggregate ()) else None in
  (* The driver's counts start at 0 on every run; a resumed run adds
     them to the counts its journal already ends with. *)
  let plus f n = n + Option.fold ~none:0 ~some:f !carried in
  let retries = plus (fun c -> c.retries) p.retries in
  {
    ts_ns = now_rel_ns ();
    pulled = plus (fun c -> c.pulled) p.pulled;
    settled = plus (fun c -> c.settled) p.settled;
    quarantined = plus (fun c -> c.quarantined) p.quarantined;
    in_flight = p.in_flight;
    window = p.window;
    retries;
    stalls = plus (fun c -> c.stalls) p.stalls;
    (* Each retry sleeps its backoff exactly once. *)
    backoffs = retries;
    deferrals = plus (fun c -> c.deferrals) 0;
    rss_kb = self_rss_kb ();
    child_rss_kb = p.child_rss_kb;
    minor_words = int_of_float gc.Gc.minor_words;
    major_words = int_of_float gc.Gc.major_words;
    metrics = m;
  }

(* Unconditional sample (when enabled): the driver calls this once at
   stream end so even a sub-interval run leaves a final cut.  [on] is
   read again under the lock, so no sample reaches a sink [disable] has
   dropped. *)
let sample_now (p : progress) =
  if Atomic.get on then
    Mutex.protect lock (fun () -> if Atomic.get on then !sink (take_sample p))

(* Rate-limited sample.  The CAS elects exactly one caller per due
   window; losers (concurrent ticks racing the same deadline) skip. *)
let tick (f : unit -> progress) =
  if Atomic.get on then begin
    let now = now_rel_ns () in
    let due = Atomic.get next_due in
    if now >= due && Atomic.compare_and_set next_due due (now + !interval) then
      sample_now (f ())
  end
