(* Unit tests for the run-health sampler (lib/util/telemetry.ml) and the
   leveled logger (lib/util/log.ml): enable/tick round trips through a
   sink, samples read back from a real journal file by [Runlog.load], the
   disabled paths are no-ops, and the log threshold actually gates
   emission — including the Source malformed-manifest warning the CLI
   routes through it. *)

module Telemetry = Octo_util.Telemetry
module Journal = Octo_util.Journal
module Log = Octo_util.Log
module Metrics = Octo_util.Metrics
module Source = Octo_targets.Source
module Runlog = Octo_report.Runlog

let tc name f = Alcotest.test_case name `Quick f

let tmp_path name =
  let p = Filename.temp_file ("octo_" ^ name) ".jrnl" in
  Sys.remove p;
  p

let progress ?(pulled = 0) ?(settled = 0) ?(quarantined = 0) ?(in_flight = 0) ?(window = 1)
    ?(retries = 0) ?(stalls = 0) ?(child_rss_kb = 0) () : Telemetry.progress =
  { pulled; settled; quarantined; in_flight; window; retries; stalls; child_rss_kb }

(* A sample after the OTL1 round trip, so every sample a test reads has
   been through the codec. *)
let otl1 s =
  match Telemetry.decode_sample (Telemetry.encode_sample s) with
  | Some s -> s
  | None -> Alcotest.fail "the sampler emitted a sample its codec cannot decode"

(* Run [f] with telemetry enabled into a sink that keeps every sample;
   [f] gets the samples so far, in emission order.  Always disables on
   the way out so later tests see a clean module state. *)
let with_telemetry ?interval_ns ?from f =
  let got = ref [] in
  Telemetry.enable ?interval_ns ?from (fun s -> got := otl1 s :: !got);
  let samples () = List.rev !got in
  Fun.protect ~finally:Telemetry.disable (fun () -> f samples)

(* The samples a journal file holds, as the run layer loads them. *)
let loaded_samples path =
  match Runlog.load path with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

(* A sink appending each sample's OTL1 frame to a journal, as a run's. *)
let journal_sink w s = Journal.append ~armed:false w (Telemetry.encode_sample s)

(* Run [f] with telemetry enabled into a journal file, as a run does;
   [f] gets a function that stops sampling and returns the samples the
   file holds. *)
let journaled f =
  let path = tmp_path "telemetry" in
  let w = Journal.create ~path () in
  Telemetry.enable (journal_sink w);
  let samples () =
    Telemetry.disable ();
    Journal.close w;
    (loaded_samples path).samples
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Journal.close w;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f samples)

(* -- sampler ------------------------------------------------------------ *)

let sampler_roundtrip () =
  let first =
    journaled (fun samples ->
        Alcotest.(check bool) "enabled" true (Telemetry.is_on ());
        (* The pool-health counts are the driver's, passed through as-is. *)
        Telemetry.sample_now
          (progress ~pulled:7 ~settled:5 ~quarantined:1 ~in_flight:2 ~window:4 ~retries:2 ~stalls:1
             ~child_rss_kb:512 ());
        Telemetry.sample_now (progress ~pulled:9 ~settled:9 ());
        let r = samples () in
        Alcotest.(check int) "samples" 2 (List.length r);
        let s = List.hd r in
        Alcotest.(check int) "pulled" 7 s.Telemetry.pulled;
        Alcotest.(check int) "settled" 5 s.Telemetry.settled;
        Alcotest.(check int) "quarantined" 1 s.Telemetry.quarantined;
        Alcotest.(check int) "in_flight" 2 s.Telemetry.in_flight;
        Alcotest.(check int) "window" 4 s.Telemetry.window;
        Alcotest.(check int) "retries" 2 s.Telemetry.retries;
        Alcotest.(check int) "stalls" 1 s.Telemetry.stalls;
        Alcotest.(check int) "backoffs: one per retry" 2 s.Telemetry.backoffs;
        Alcotest.(check int) "deferrals: not counted" 0 s.Telemetry.deferrals;
        Alcotest.(check int) "child rss" 512 s.Telemetry.child_rss_kb;
        let s2 = List.nth r 1 in
        Alcotest.(check bool) "timestamps monotonic" true
          (s2.Telemetry.ts_ns >= s.Telemetry.ts_ns);
        s)
  in
  (* Deferrals are no longer counted: a sample carries the value of the
     series it continues. *)
  with_telemetry ~from:{ first with deferrals = 1 } (fun samples ->
      Telemetry.sample_now (progress ());
      Alcotest.(check int) "deferrals carried over" 1 (List.hd (samples ())).Telemetry.deferrals)

let sampler_tick_rate_limited () =
  (* A huge interval admits exactly one tick sample; the thunk must not
     even run for the suppressed ticks. *)
  with_telemetry ~interval_ns:3_600_000_000_000 (fun samples ->
      let calls = ref 0 in
      for _ = 1 to 50 do
        Telemetry.tick (fun () ->
            incr calls;
            progress ())
      done;
      Alcotest.(check int) "thunk ran once" 1 !calls;
      Alcotest.(check int) "one frame" 1 (List.length (samples ())))

let sampler_disabled_noop () =
  Alcotest.(check bool) "off" false (Telemetry.is_on ());
  let calls = ref 0 in
  Telemetry.tick (fun () ->
      incr calls;
      progress ());
  Telemetry.sample_now (progress ~retries:3 ~child_rss_kb:999 ());
  Alcotest.(check int) "thunk never ran" 0 !calls;
  (* A later enable records only what its own samples carry. *)
  with_telemetry (fun samples ->
      Telemetry.sample_now (progress ());
      let s = List.hd (samples ()) in
      Alcotest.(check int) "no retries" 0 s.Telemetry.retries;
      Alcotest.(check int) "no child rss" 0 s.Telemetry.child_rss_kb;
      Alcotest.(check int) "one frame" 1 (List.length (samples ())));
  (* Nothing reaches a sink once sampling is disabled. *)
  let late = ref 0 in
  Telemetry.enable (fun _ -> incr late);
  Telemetry.disable ();
  Telemetry.sample_now (progress ());
  Alcotest.(check int) "no frame after disable" 0 !late

let sampler_metrics_attached () =
  with_telemetry (fun samples ->
      Metrics.enable ();
      Fun.protect ~finally:Metrics.disable (fun () ->
          Metrics.observe_phase Metrics.Taint 1000;
          Telemetry.sample_now (progress ()));
      match (List.hd (samples ())).Telemetry.metrics with
      | None -> Alcotest.fail "expected a metrics snapshot in the frame"
      | Some m ->
          Alcotest.(check bool) "taint span recorded" true
            (Metrics.phase_spans m Metrics.Taint >= 1))

let sampler_torn_tail () =
  (* Samples journaled through a writer, then bytes chopped off the file:
     the load degrades to a valid prefix. *)
  let path = tmp_path "torn" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let w = Journal.create ~path () in
      Telemetry.enable (journal_sink w);
      Telemetry.sample_now (progress ~settled:1 ());
      Telemetry.sample_now (progress ~settled:2 ());
      Telemetry.disable ();
      Journal.close w;
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (len - 3);
      Unix.close fd;
      let r = loaded_samples path in
      Alcotest.(check int) "prefix survives" 1 (List.length r.samples);
      Alcotest.(check bool) "torn flagged" true r.torn;
      Alcotest.(check int) "nothing undecodable" 0 r.undecodable;
      Alcotest.(check int) "prefix content" 1 (List.hd r.samples).Telemetry.settled)

let sampler_resume_continues () =
  (* Re-enabling from the last sample of a series (a resumed run)
     continues it: timestamps never go back, and the cumulative counts
     carry on from that sample. *)
  let first =
    with_telemetry (fun samples ->
        Telemetry.sample_now (progress ~pulled:3 ~settled:2 ~retries:1 ());
        Telemetry.sample_now (progress ~pulled:5 ~settled:4 ~retries:1 ~in_flight:1 ());
        samples ())
  in
  let last = List.nth first 1 in
  let resumed =
    with_telemetry ~from:last (fun samples ->
        Telemetry.sample_now (progress ~pulled:2 ~settled:2 ~in_flight:1 ());
        samples ())
  in
  let series = first @ resumed in
  let ts = List.map (fun (s : Telemetry.sample) -> s.ts_ns) series in
  Alcotest.(check bool) "ts_ns never decreases" true (List.sort compare ts = ts);
  let s = List.hd resumed in
  Alcotest.(check int) "pulled continues" 7 s.Telemetry.pulled;
  Alcotest.(check int) "settled continues" 6 s.Telemetry.settled;
  Alcotest.(check int) "retries continue" 1 s.Telemetry.retries;
  Alcotest.(check int) "in-flight is instantaneous" 1 s.Telemetry.in_flight

(* The stream driver samples while its attempts are in flight, so the
   samples' peak in-flight is the run's: 1 for a serial run. *)
let sampler_sees_stream_in_flight () =
  with_telemetry (fun samples ->
      let jobs =
        List.filteri (fun i _ -> i < 3) Octo_targets.Registry.all
        |> List.map (fun (c : Octo_targets.Registry.case) ->
               Octopocs.job ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ())
      in
      let st = Octopocs.run_stream ~jobs:1 (Octopocs.stream_of_list jobs) in
      let peak =
        List.fold_left (fun m (s : Telemetry.sample) -> max m s.in_flight) 0 (samples ())
      in
      Alcotest.(check int) "serial peak" 1 st.Octopocs.st_peak_in_flight;
      Alcotest.(check int) "sampled peak = run peak" st.Octopocs.st_peak_in_flight peak)

(* Every executor ticks before waiting on the attempts it counts: in a
   serial stream sampling at every tick, each attempt starts after a
   sample that already counts the pairs settled before it. *)
let sampler_ticks_before_serial_attempt () =
  with_telemetry ~interval_ns:1 (fun samples ->
      let seen = ref [] in
      let pre_run _ =
        let s = List.hd (List.rev (samples ())) in
        seen := (s.Telemetry.settled, s.Telemetry.in_flight) :: !seen
      in
      let jobs =
        List.filteri (fun i _ -> i < 3) Octo_targets.Registry.all
        |> List.map (fun (c : Octo_targets.Registry.case) ->
               Octopocs.job ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ())
      in
      ignore (Octopocs.run_stream ~jobs:1 ~pre_run (Octopocs.stream_of_list jobs));
      Alcotest.(check (list (pair int int)))
        "(settled, in-flight) sampled as each attempt starts" [ (0, 1); (1, 1); (2, 1) ]
        (List.rev !seen))

(* A run with an [on_sample] consumer and no journal samples all the
   same: the last sample carries the run's settled count, sampling stops
   with the run, and no file is written. *)
let runlog_on_sample_without_journal () =
  let listing () = List.sort compare (Array.to_list (Sys.readdir (Sys.getcwd ()))) in
  let before = listing () in
  let got = ref [] in
  let entries =
    List.filteri (fun i _ -> i < 3) Octo_targets.Registry.all
    |> List.map (fun (c : Octo_targets.Registry.case) ->
           Runlog.entry ~config:Octopocs.default_config ~label:(string_of_int c.idx) ~s:c.s
             ~t:c.t ~poc:c.poc ())
  in
  match Runlog.run ~on_sample:(fun s -> got := otl1 s :: !got) (Octopocs.stream_of_list entries) with
  | Error msg -> Alcotest.fail msg
  | Ok st ->
      Alcotest.(check bool) "sampled" true (!got <> []);
      Alcotest.(check int) "last sample: the run's settled count" st.Octopocs.st_settled
        (List.hd !got).Telemetry.settled;
      Alcotest.(check int) "every pair settled" 3 st.Octopocs.st_settled;
      Alcotest.(check bool) "sampler off after the run" false (Telemetry.is_on ());
      Alcotest.(check (list string)) "no file created" before (listing ())

(* -- progress meter ----------------------------------------------------- *)

let sample ~ms ~settled ?(quarantined = 0) () : Telemetry.sample =
  {
    ts_ns = ms * 1_000_000;
    pulled = settled;
    settled;
    quarantined;
    in_flight = 1;
    window = 1;
    retries = 0;
    stalls = 0;
    backoffs = 0;
    deferrals = 0;
    rss_kb = 0;
    child_rss_kb = 0;
    minor_words = 0;
    major_words = 0;
    metrics = None;
  }

(* The meter's line is a function of (total, anchor, sample): a rate
   once the two span 0.2 s, an ETA only with a known total, a quarantine
   count only when non-zero. *)
let meter_line_rules () =
  let line ?total ~anchor s = Octo_report.Report.meter_line ~total ~anchor s in
  let a = sample ~ms:1000 ~settled:10 () in
  Alcotest.(check string) "first sample: no rate, no ETA" "10/40 settled, 0.0 pairs/s"
    (line ~total:40 ~anchor:a a);
  Alcotest.(check string) "under 0.2 s of span: no rate" "14/40 settled, 0.0 pairs/s"
    (line ~total:40 ~anchor:a (sample ~ms:1150 ~settled:14 ()));
  Alcotest.(check string) "rate and ETA" "20/40 settled, 20.0 pairs/s eta 1s"
    (line ~total:40 ~anchor:a (sample ~ms:1500 ~settled:20 ()));
  Alcotest.(check string) "no total: no ETA" "20 settled, 20.0 pairs/s"
    (line ~anchor:a (sample ~ms:1500 ~settled:20 ()));
  Alcotest.(check string) "done: no ETA" "40/40 settled, 15.0 pairs/s"
    (line ~total:40 ~anchor:a (sample ~ms:3000 ~settled:40 ()));
  Alcotest.(check string) "quarantines shown when non-zero"
    "20/40 settled, 20.0 pairs/s eta 1s, 2 quarantined"
    (line ~total:40 ~anchor:a (sample ~ms:1500 ~settled:20 ~quarantined:2 ()))

(* A journal written without telemetry holds no samples, and its load
   reads none. *)
let journal_without_samples () =
  let path = tmp_path "nosamples" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let c = Octo_targets.Registry.find 1 in
      let entry =
        Runlog.entry ~config:Octopocs.default_config ~label:"1" ~s:c.s ~t:c.t ~poc:c.poc ()
      in
      (match Runlog.run ~journal:path (Octopocs.stream_of_list [ entry ]) with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      let r = loaded_samples path in
      Alcotest.(check int) "no samples" 0 (List.length r.samples);
      Alcotest.(check int) "the verdict" 1 (List.length r.verdicts);
      Alcotest.(check int) "nothing undecodable" 0 r.undecodable)

let self_rss_positive () =
  (* /proc is available on every platform CI runs on; a live process has
     nonzero RSS. *)
  Alcotest.(check bool) "rss > 0" true (Telemetry.self_rss_kb () > 0)

(* -- logger ------------------------------------------------------------- *)

(* Capture emitted lines through a test sink at a given threshold,
   restoring the default sink and threshold afterwards. *)
let with_log_capture level f =
  let captured = ref [] in
  let saved = Log.level () in
  Log.set_level level;
  Log.set_sink (fun lvl msg -> captured := (lvl, msg) :: !captured);
  Fun.protect
    ~finally:(fun () ->
      Log.reset_sink ();
      Log.set_level saved)
    (fun () ->
      f ();
      List.rev !captured)

let log_threshold_gates () =
  let lines =
    with_log_capture Log.Warn (fun () ->
        Log.err (fun m -> m "e%d" 1);
        Log.warn (fun m -> m "w%d" 2);
        Log.info (fun m -> m "i%d" 3);
        Log.debug (fun m -> m "d%d" 4))
  in
  Alcotest.(check (list string)) "warn passes err+warn" [ "e1"; "w2" ]
    (List.map snd lines);
  let lines =
    with_log_capture Log.Error (fun () ->
        Log.err (fun m -> m "only");
        Log.warn (fun m -> m "dropped"))
  in
  Alcotest.(check (list string)) "error passes err only" [ "only" ]
    (List.map snd lines)

let log_lazy_formatting () =
  (* Below the threshold the message closure must never run. *)
  let ran = ref false in
  let lines =
    with_log_capture Log.Error (fun () ->
        Log.debug (fun m ->
            ran := true;
            m "never"))
  in
  Alcotest.(check (list string)) "nothing emitted" [] (List.map snd lines);
  Alcotest.(check bool) "closure skipped" false !ran

let log_level_of_string () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool) s true (Log.level_of_string s = Some want))
    [
      ("error", Log.Error); ("err", Log.Error); ("warn", Log.Warn);
      ("warning", Log.Warn); ("info", Log.Info); ("debug", Log.Debug);
    ];
  Alcotest.(check bool) "garbage" true (Log.level_of_string "loud" = None)

(* The satellite contract: Source's malformed-manifest warning goes
   through Log.warn, so --log-level error silences it. *)
let source_warning_gated () =
  let dir = Filename.temp_file "octo_corpus" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Source.write_dir ~dir ~seed:1 ~count:2;
  let bad = Filename.concat dir "zz_bad.pair" in
  let oc = open_out bad in
  output_string oc "not a manifest\n";
  close_out oc;
  let drain () =
    let src = Source.directory dir in
    let rec go n = match Source.next src with None -> n | Some _ -> go (n + 1) in
    go 0
  in
  let lines = with_log_capture Log.Warn (fun () -> ignore (drain ())) in
  Alcotest.(check int) "warn level: warning emitted" 1 (List.length lines);
  Alcotest.(check bool) "names the manifest" true
    (let msg = snd (List.hd lines) in
     String.length msg >= String.length bad
     && String.sub msg (String.length msg - String.length bad) (String.length bad) = bad);
  let lines = with_log_capture Log.Error (fun () -> ignore (drain ())) in
  Alcotest.(check int) "error level: silenced" 0 (List.length lines);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let log_jsonl_sink () =
  let path = tmp_path "log" in
  let saved = Log.level () in
  Log.set_level Log.Warn;
  Log.set_sink (fun _ _ -> ());
  Log.set_jsonl path;
  Log.warn (fun m -> m "json \"quoted\" line");
  Log.close_jsonl ();
  Log.reset_sink ();
  Log.set_level saved;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "level field" true
    (let re = {|"level":"warn"|} in
     let rec find i =
       i + String.length re <= String.length line
       && (String.sub line i (String.length re) = re || find (i + 1))
     in
     find 0);
  Alcotest.(check bool) "quotes escaped" true
    (let re = {|json \"quoted\" line|} in
     let rec find i =
       i + String.length re <= String.length line
       && (String.sub line i (String.length re) = re || find (i + 1))
     in
     find 0)

let suite =
  [
    tc "sampler: samples round-trip through the journal" sampler_roundtrip;
    tc "sampler: tick is rate-limited and lazy" sampler_tick_rate_limited;
    tc "sampler: disabled entry points are no-ops" sampler_disabled_noop;
    tc "sampler: metrics snapshot rides along when collecting" sampler_metrics_attached;
    tc "sampler: torn tail degrades to a valid prefix" sampler_torn_tail;
    tc "sampler: re-enabling appends, continuing clock and counts" sampler_resume_continues;
    tc "sampler: no samples without --telemetry" journal_without_samples;
    tc "sampler: a serial stream's samples peak at in-flight 1" sampler_sees_stream_in_flight;
    tc "sampler: a serial stream ticks before each attempt" sampler_ticks_before_serial_attempt;
    tc "sampler: on_sample without a journal samples, writes nothing"
      runlog_on_sample_without_journal;
    tc "meter: rate, ETA and quarantine rules" meter_line_rules;
    tc "sampler: self_rss_kb reads a live value" self_rss_positive;
    tc "log: threshold gates emission" log_threshold_gates;
    tc "log: suppressed messages never format" log_lazy_formatting;
    tc "log: level_of_string accepts the documented aliases" log_level_of_string;
    tc "log: source malformed-manifest warning obeys the threshold" source_warning_gated;
    tc "log: jsonl sink writes escaped records" log_jsonl_sink;
  ]
