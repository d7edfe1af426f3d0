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
   prefix), the payload codec is hand-rolled and total — no [Marshal] —
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

let put_int b i =
  let l = Bytes.create 8 in
  Bytes.set_int64_le l 0 (Int64.of_int i);
  Buffer.add_bytes b l

let put_int_array b a =
  put_int b (Array.length a);
  Array.iter (put_int b) a

let encode_sample (s : sample) =
  let b = Buffer.create 256 in
  Buffer.add_string b codec_version;
  put_int b s.ts_ns;
  put_int b s.pulled;
  put_int b s.settled;
  put_int b s.quarantined;
  put_int b s.in_flight;
  put_int b s.window;
  put_int b s.retries;
  put_int b s.stalls;
  put_int b s.backoffs;
  put_int b s.deferrals;
  put_int b s.rss_kb;
  put_int b s.child_rss_kb;
  put_int b s.minor_words;
  put_int b s.major_words;
  (match s.metrics with
  | None -> Buffer.add_char b '0'
  | Some m ->
      Buffer.add_char b '1';
      put_int_array b m.Metrics.counters;
      put_int_array b m.Metrics.phase_count;
      put_int_array b m.Metrics.phase_ns;
      put_int_array b m.Metrics.phase_hist);
  Buffer.contents b

(* Total: [None] on any malformed payload, never raises, never reads
   out of bounds.  Mirrors the OPR3/OQR1 decoders, including the
   length-tolerant counter array (an open enumeration across releases)
   and the trailing exact-consumption check. *)
let decode_sample (s : string) : sample option =
  let pos = ref 0 in
  let n = String.length s in
  let exception Bad in
  let take k =
    if k < 0 || n - !pos < k then raise Bad;
    let r = String.sub s !pos k in
    pos := !pos + k;
    r
  in
  let get_int () =
    let s = take 8 in
    Int64.to_int (Bytes.get_int64_le (Bytes.unsafe_of_string s) 0)
  in
  let get_int_array expect =
    if get_int () <> expect then raise Bad;
    if expect < 0 || expect * 8 > n - !pos then raise Bad;
    Array.init expect (fun _ -> get_int ())
  in
  let get_counters () =
    let k = get_int () in
    if k < 0 || k > 64 || k * 8 > n - !pos then raise Bad;
    let a = Array.init k (fun _ -> get_int ()) in
    let counters = Array.make Metrics.ncounters 0 in
    Array.blit a 0 counters 0 (min k Metrics.ncounters);
    counters
  in
  match
    if take 4 <> codec_version then raise Bad;
    let ts_ns = get_int () in
    let pulled = get_int () in
    let settled = get_int () in
    let quarantined = get_int () in
    let in_flight = get_int () in
    let window = get_int () in
    let retries = get_int () in
    let stalls = get_int () in
    let backoffs = get_int () in
    let deferrals = get_int () in
    let rss_kb = get_int () in
    let child_rss_kb = get_int () in
    let minor_words = get_int () in
    let major_words = get_int () in
    let metrics =
      match (take 1).[0] with
      | '0' -> None
      | '1' ->
          let counters = get_counters () in
          let phase_count = get_int_array Metrics.nphases in
          let phase_ns = get_int_array Metrics.nphases in
          let phase_hist = get_int_array (Metrics.nphases * Metrics.nbuckets) in
          Some { Metrics.counters; phase_count; phase_ns; phase_hist }
      | _ -> raise Bad
    in
    if !pos <> n then raise Bad;
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
    }
  with
  | s -> Some s
  | exception Bad -> None

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
