(* Run-health time-series sampler.

   While enabled, the streaming drivers call [tick] at their natural
   cadence points (each settle, each select-loop wakeup); at most once
   per [interval_ns] a sample is taken — throughput counters from the
   driver, pool-health counters accumulated here, parent/child memory,
   GC words, and (when [Metrics] collection is on) the per-phase latency
   histograms — encoded as a versioned [OTL1] frame and appended to a
   [telemetry.jrnl] write-ahead journal beside the verdict journal.

   Costs mirror [Metrics] and [Trace]: disabled, every entry point is a
   single [Atomic.get]; enabled, a non-due [tick] is two atomic loads
   and an int64 compare.  Samples are serialized under one mutex (the
   journal writer has its own, but the sample itself must be a
   consistent cut).

   Frames are crc-framed by the journal (torn tails replay to a valid
   prefix), the payload is laid out by [Wire] and decodes totally,
   and timestamps are monotonic nanoseconds relative to [enable], so
   two dumps of the same run are structurally comparable. *)

(* Resident set of this process in KiB, from /proc/self/statm (field 2
   is resident pages).  0 where /proc is absent.  The page size comes
   from the same C stub Sandbox uses. *)
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
}

type sample = {
  ts_ns : int;  (** monotonic ns since [enable] *)
  pulled : int;
  settled : int;
  quarantined : int;
  in_flight : int;
  window : int;
  retries : int;  (** crash/stall retries noted since [enable] *)
  stalls : int;  (** jobs whose retry budget ran out on a stall since [enable] *)
  backoffs : int;  (** backoff sleeps since [enable] *)
  deferrals : int;  (** admission deferrals since [enable] *)
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
let writer : Journal.writer option ref = ref None
let base_ns = ref 0L
let interval = ref default_interval_ns

(* Next tick-due instant, relative ns.  An [Atomic] so the hot non-due
   path never takes the mutex. *)
let next_due = Atomic.make 0

(* Pool-health accumulators, reset on [enable].  Fed by the drivers at
   the same sites that bump the corresponding [Metrics] counters, but
   gated on this module's own flag so telemetry never requires (or
   perturbs) metrics collection. *)
let retries = Atomic.make 0
let stalls = Atomic.make 0
let backoffs = Atomic.make 0
let deferrals = Atomic.make 0
let child_rss_max = Atomic.make 0

let is_on () = Atomic.get on
let note_retry () = if Atomic.get on then Atomic.incr retries
let note_stall () = if Atomic.get on then Atomic.incr stalls
let note_backoff () = if Atomic.get on then Atomic.incr backoffs
let note_deferral () = if Atomic.get on then Atomic.incr deferrals

let rec note_child_rss kb =
  if Atomic.get on then begin
    let cur = Atomic.get child_rss_max in
    if kb > cur && not (Atomic.compare_and_set child_rss_max cur kb) then note_child_rss kb
  end

let now_rel_ns () = Int64.to_int (Int64.sub (Deadline.monotonic_ns ()) !base_ns)

let enable ?(interval_ns = default_interval_ns) ~path () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      (match !writer with Some w -> Journal.close w | None -> ());
      (* fsync would put a disk barrier on the verify hot path for data
         that is advisory by nature; a torn telemetry tail just replays
         to a shorter valid prefix. *)
      writer := Some (Journal.create ~fsync:false ~path ());
      base_ns := Deadline.monotonic_ns ();
      interval := max 1 interval_ns;
      Atomic.set next_due 0;
      Atomic.set retries 0;
      Atomic.set stalls 0;
      Atomic.set backoffs 0;
      Atomic.set deferrals 0;
      Atomic.set child_rss_max 0;
      Atomic.set on true)

let disable () =
  Atomic.set on false;
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      (match !writer with Some w -> Journal.close w | None -> ());
      writer := None)

let take_sample (p : progress) =
  let gc = Gc.quick_stat () in
  let m = if Metrics.is_on () then Some (Metrics.aggregate ()) else None in
  {
    ts_ns = now_rel_ns ();
    pulled = p.pulled;
    settled = p.settled;
    quarantined = p.quarantined;
    in_flight = p.in_flight;
    window = p.window;
    retries = Atomic.get retries;
    stalls = Atomic.get stalls;
    backoffs = Atomic.get backoffs;
    deferrals = Atomic.get deferrals;
    rss_kb = self_rss_kb ();
    child_rss_kb = Atomic.get child_rss_max;
    minor_words = int_of_float gc.Gc.minor_words;
    major_words = int_of_float gc.Gc.major_words;
    metrics = m;
  }

(* Unconditional sample (when enabled): the drivers call this once at
   stream end so even a sub-interval run leaves a final cut. *)
let sample_now (p : progress) =
  if Atomic.get on then begin
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match !writer with
        | None -> ()
        | Some w -> Journal.append w (encode_sample (take_sample p)))
  end

(* Rate-limited sample.  The CAS elects exactly one caller per due
   window; losers (concurrent ticks racing the same deadline) skip. *)
let tick (f : unit -> progress) =
  if Atomic.get on then begin
    let now = now_rel_ns () in
    let due = Atomic.get next_due in
    if now >= due && Atomic.compare_and_set next_due due (now + !interval) then
      sample_now (f ())
  end

(* -- replay ------------------------------------------------------------ *)

type replay = {
  samples : sample list;  (** every decodable sample, in append order *)
  undecodable : int;  (** intact frames [decode_sample] rejected *)
  torn : bool;  (** the file ended in a truncated/corrupt frame *)
}

let replay path =
  let r = Journal.replay path in
  let undecodable = ref 0 in
  let samples =
    List.filter_map
      (fun rec_ ->
        match decode_sample rec_ with
        | Some s -> Some s
        | None ->
            incr undecodable;
            None)
      r.Journal.records
  in
  { samples; undecodable = !undecodable; torn = r.Journal.torn }
