(* Tests for the corpus layer: the deterministic pair generator (same
   coordinates, same pair; expected verdict classes hold end-to-end),
   streaming pair sources (spec parsing, directory manifests), the
   streaming runner's quarantine/windowing behaviour, and the pool's
   backoff policy. *)

module Corpus = Octo_targets.Corpus
module Source = Octo_targets.Source
module Pool = Octo_util.Pool
module Metrics = Octo_util.Metrics
module Faultinject = Octo_util.Faultinject
module Registry = Octo_targets.Registry
module Scan = Octo_targets.Scan
module Detect = Octo_clone.Detect
module Compile = Octo_vm.Compile
module O = Octopocs

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let with_tmp_dir f =
  let dir = Filename.temp_file "octocorpus" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Generator determinism and structure *)

let gen_deterministic () =
  for i = 0 to 49 do
    let a = Corpus.generate ~seed:7 ~index:i and b = Corpus.generate ~seed:7 ~index:i in
    check Alcotest.string "label" a.Corpus.glabel b.Corpus.glabel;
    check Alcotest.string "poc" a.Corpus.gpoc b.Corpus.gpoc;
    check Alcotest.bool "s" true (a.Corpus.gs = b.Corpus.gs);
    check Alcotest.bool "t" true (a.Corpus.gt = b.Corpus.gt)
  done

let gen_seed_sensitivity () =
  (* Different seeds must not produce the same corpus: over 30 indices at
     least one pair must differ in PoC or label. *)
  let differs =
    List.exists
      (fun i ->
        let a = Corpus.generate ~seed:1 ~index:i and b = Corpus.generate ~seed:2 ~index:i in
        a.Corpus.glabel <> b.Corpus.glabel || a.Corpus.gpoc <> b.Corpus.gpoc)
      (List.init 30 Fun.id)
  in
  check Alcotest.bool "seeds diverge" true differs

let gen_label_shape () =
  let g = Corpus.generate ~seed:7 ~index:123 in
  check Alcotest.bool "label prefix" true
    (String.length g.Corpus.glabel > 6 && String.sub g.Corpus.glabel 0 6 = "g00123")

let gen_covers_all_variants () =
  (* The weighted draw must hit every variant and family in a modest
     prefix of the corpus (deterministic, so this is a fixed fact). *)
  let variants = Hashtbl.create 4 and fams = Hashtbl.create 6 in
  for i = 0 to 99 do
    let g = Corpus.generate ~seed:42 ~index:i in
    Hashtbl.replace variants (Corpus.variant_name g.Corpus.gvariant) ();
    Hashtbl.replace fams (Corpus.family_name g.Corpus.gfamily) ()
  done;
  check Alcotest.int "4 variants" 4 (Hashtbl.length variants);
  check Alcotest.int "6 families" 6 (Hashtbl.length fams)

(* The load-bearing property: every generated pair verifies to the class
   the generator promised.  Scan a prefix until each (family, variant)
   cell seen there is validated; cap the work at a fixed pair budget. *)
let gen_expected_classes () =
  let budget = 36 in
  for i = 0 to budget - 1 do
    let g = Corpus.generate ~seed:42 ~index:i in
    let r = O.run ~s:g.Corpus.gs ~t:g.Corpus.gt ~poc:g.Corpus.gpoc () in
    check Alcotest.string
      (Printf.sprintf "%s class" g.Corpus.glabel)
      g.Corpus.gexpected
      (O.verdict_class r.O.verdict)
  done

(* ------------------------------------------------------------------ *)
(* Sources *)

let drain src =
  let rec go acc = match Source.next src with None -> List.rev acc | Some p -> go (p :: acc) in
  go []

let source_registry () =
  check Alcotest.(option int) "size" (Some 15) (Source.size (Source.registry ()));
  let ps = drain (Source.registry ()) in
  check Alcotest.int "15 pairs" 15 (List.length ps);
  check Alcotest.(list string) "labels"
    (List.init 15 (fun i -> string_of_int (i + 1)))
    (List.map (fun p -> p.Source.plabel) ps)

let source_generated () =
  check Alcotest.(option int) "size" (Some 12) (Source.size (Source.generated ~seed:9 ~count:12 ()));
  let ps = drain (Source.generated ~seed:9 ~count:12 ()) in
  check Alcotest.int "12 pairs" 12 (List.length ps);
  List.iteri
    (fun i p ->
      let g = Corpus.generate ~seed:9 ~index:i in
      check Alcotest.string "label" g.Corpus.glabel p.Source.plabel;
      check Alcotest.string "poc" g.Corpus.gpoc p.Source.ppoc;
      check Alcotest.bool "expected" true (p.Source.pexpected = Some g.Corpus.gexpected))
    ps

let source_of_spec () =
  let ok spec = match Source.of_spec spec with Ok s -> Source.id s | Error e -> "error: " ^ e in
  check Alcotest.string "registry" "registry" (ok "registry");
  check Alcotest.string "gen default seed" "gen:5:42" (ok "gen:5");
  check Alcotest.string "gen explicit seed" "gen:7:9" (ok "gen:7:9");
  let bad spec = match Source.of_spec spec with Ok _ -> false | Error _ -> true in
  check Alcotest.bool "bad count" true (bad "gen:x");
  check Alcotest.bool "negative" true (bad "gen:-3");
  check Alcotest.bool "nonsense" true (bad "no-such-corpus-dir")

let source_dir_roundtrip () =
  with_tmp_dir (fun dir ->
      Source.write_dir ~dir ~seed:11 ~count:8;
      check Alcotest.(option int) "size" (Some 8) (Source.size (Source.directory dir));
      let ps = drain (Source.directory dir) in
      check Alcotest.int "8 pairs" 8 (List.length ps);
      List.iteri
        (fun i p ->
          let g = Corpus.generate ~seed:11 ~index:i in
          check Alcotest.string "label" g.Corpus.glabel p.Source.plabel;
          check Alcotest.string "poc" g.Corpus.gpoc p.Source.ppoc)
        ps)

let source_dir_skips_malformed () =
  with_tmp_dir (fun dir ->
      Source.write_dir ~dir ~seed:11 ~count:3;
      let oc = open_out (Filename.concat dir "pair-00001.pair") in
      output_string oc "not a manifest\n";
      close_out oc;
      let oc = open_out (Filename.concat dir "zz-junk.pair") in
      output_string oc "octopair1\nregistry=9999\n";
      close_out oc;
      check Alcotest.(option int) "size counts every manifest" (Some 4)
        (Source.size (Source.directory dir));
      let ps = drain (Source.directory dir) in
      check Alcotest.int "malformed skipped" 2 (List.length ps))

let source_dir_registry_manifest () =
  with_tmp_dir (fun dir ->
      let oc = open_out (Filename.concat dir "only.pair") in
      output_string oc "octopair1\nregistry=3\n";
      close_out oc;
      let ps = drain (Source.directory dir) in
      check Alcotest.int "one pair" 1 (List.length ps);
      check Alcotest.string "label" "3" (List.hd ps).Source.plabel)

(* ------------------------------------------------------------------ *)
(* Backoff policy *)

let backoff_deterministic () =
  let a = Pool.backoff_delay ~key:5 ~attempt:3 () in
  let b = Pool.backoff_delay ~key:5 ~attempt:3 () in
  check (Alcotest.float 0.0) "same (key, attempt), same delay" a b

let backoff_caps_and_grows () =
  (* Expected (pre-jitter) delay doubles per attempt and saturates at the
     cap; jitter keeps every sample within [0.5, 1.5] x nominal. *)
  let nominal a = Float.min 0.100 (0.002 *. Float.of_int (1 lsl (min a 16 - 1))) in
  for attempt = 1 to 20 do
    let d = Pool.backoff_delay ~key:attempt ~attempt () in
    let n = nominal attempt in
    check Alcotest.bool "lower" true (d >= (0.5 *. n) -. 1e-9);
    check Alcotest.bool "upper" true (d <= (1.5 *. n) +. 1e-9)
  done;
  check Alcotest.bool "cap" true (Pool.backoff_delay ~key:1 ~attempt:30 () <= 0.150 +. 1e-9)

(* The driver counts one backoff per retry: each retried attempt sleeps
   its delay once before it runs. *)
let backoff_counter () =
  Metrics.enable ();
  let read () = Metrics.counter_value (Metrics.current ()) Metrics.Pool_backoffs in
  let before = read () in
  let c = Octo_targets.Registry.find 1 in
  let inject =
    Faultinject.create ~seed:1 ~rate:0.0 ~site_rates:[ (Faultinject.Worker_crash, 1.0) ] ()
  in
  let job =
    O.job ~config:{ O.default_config with O.inject } ~label:"backoff"
      ~s:c.Octo_targets.Registry.s ~t:c.Octo_targets.Registry.t
      ~poc:c.Octo_targets.Registry.poc ()
  in
  let st = O.run_stream ~jobs:1 ~retries:2 ~on_quarantine:ignore (O.stream_of_list [ job ]) in
  check Alcotest.int "quarantined" 1 st.O.st_quarantined;
  check Alcotest.int "two sleeps counted" (before + 2) (read ())

(* ------------------------------------------------------------------ *)
(* Streaming runner *)

let mini_source n =
  (* A source of n cheap registry-pair-1 jobs with distinct labels. *)
  let c = Octo_targets.Registry.find 1 in
  let i = ref 0 in
  fun () ->
    if !i >= n then None
    else begin
      incr i;
      Some
        (O.job
           ~label:(Printf.sprintf "p%02d" !i)
           ~s:c.Octo_targets.Registry.s ~t:c.Octo_targets.Registry.t
           ~poc:c.Octo_targets.Registry.poc ())
    end

let stream_serial_settles_all () =
  let settled = ref [] in
  let st =
    O.run_stream ~jobs:1
      ~on_settle:(fun j r ->
        settled := (O.job_label j, O.verdict_class r.O.verdict) :: !settled)
      (mini_source 5)
  in
  check Alcotest.int "pulled" 5 st.O.st_pulled;
  check Alcotest.int "settled" 5 st.O.st_settled;
  check Alcotest.int "quarantined" 0 st.O.st_quarantined;
  check Alcotest.int "all reported" 5 (List.length !settled);
  List.iter (fun (_, c) -> check Alcotest.string "class" "Type-I" c) !settled

let stream_parallel_bounded_window () =
  let st = O.run_stream ~jobs:2 ~window:3 ~on_settle:(fun _ _ -> ()) (mini_source 8) in
  check Alcotest.int "settled" 8 st.O.st_settled;
  check Alcotest.bool "window respected" true (st.O.st_peak_in_flight <= 3)

exception Source_broke

let stream_parallel_source_raise_stops_workers () =
  (* A source that raises after three jobs: [run_stream] must re-raise it
     promptly, with no attempt left running on a worker (each attempt
     holds [busy] for 50 ms in its pre-run hook), and a following parallel
     run must go to completion. *)
  let busy = Atomic.make 0 in
  let pre_run _ =
    Atomic.incr busy;
    Unix.sleepf 0.05;
    Atomic.decr busy
  in
  let src = mini_source 8 and pulls = ref 0 in
  let next () =
    incr pulls;
    if !pulls > 3 then raise Source_broke else src ()
  in
  let t0 = Unix.gettimeofday () in
  (match O.run_stream ~jobs:4 ~pre_run next with
  | _ -> Alcotest.fail "expected the source's exception"
  | exception Source_broke -> ());
  check Alcotest.bool "re-raised promptly" true (Unix.gettimeofday () -. t0 < 5.0);
  check Alcotest.int "no attempt still running" 0 (Atomic.get busy);
  let st = O.run_stream ~jobs:4 ~on_settle:(fun _ _ -> ()) (mini_source 6) in
  check Alcotest.int "next run settles all" 6 st.O.st_settled

(* A config whose injector always fires Worker_crash: the job dies on
   every attempt, exhausts the retry budget, and must be quarantined
   rather than failing the stream. *)
let poison_config () =
  let inject =
    Faultinject.create ~seed:1 ~rate:0.0 ~site_rates:[ (Faultinject.Worker_crash, 1.0) ] ()
  in
  { O.default_config with O.inject }

let stream_quarantines_poison () =
  let c = Octo_targets.Registry.find 1 in
  let poison = poison_config () in
  let i = ref 0 in
  let next () =
    if !i >= 4 then None
    else begin
      incr i;
      let label = Printf.sprintf "q%02d" !i in
      if !i = 2 then
        Some
          (O.job ~config:poison ~label ~s:c.Octo_targets.Registry.s
             ~t:c.Octo_targets.Registry.t ~poc:c.Octo_targets.Registry.poc ())
      else
        Some
          (O.job ~label ~s:c.Octo_targets.Registry.s ~t:c.Octo_targets.Registry.t
             ~poc:c.Octo_targets.Registry.poc ())
    end
  in
  let quarantined = ref [] in
  let settled = ref 0 in
  let st =
    O.run_stream ~jobs:1 ~retries:2
      ~on_settle:(fun _ _ -> incr settled)
      ~on_quarantine:(fun q -> quarantined := q :: !quarantined)
      next
  in
  check Alcotest.int "settled" 3 !settled;
  check Alcotest.int "quarantined" 1 st.O.st_quarantined;
  match !quarantined with
  | [ q ] ->
      check Alcotest.string "label" "q02" q.O.qlabel;
      check Alcotest.string "reason" "worker crashed" q.O.qreason;
      check Alcotest.int "attempts" 3 q.O.qattempts;
      check Alcotest.bool "key recorded" true (String.length q.O.qkey > 0)
  | qs -> Alcotest.failf "expected 1 quarantine, got %d" (List.length qs)

let stream_without_handler_settles_failure () =
  (* No on_quarantine: the poison pair must settle as a Failure report
     instead of disappearing. *)
  let c = Octo_targets.Registry.find 1 in
  let poison = poison_config () in
  let sent = ref false in
  let next () =
    if !sent then None
    else begin
      sent := true;
      Some
        (O.job ~config:poison ~label:"lone" ~s:c.Octo_targets.Registry.s
           ~t:c.Octo_targets.Registry.t ~poc:c.Octo_targets.Registry.poc ())
    end
  in
  let got = ref None in
  let st = O.run_stream ~jobs:1 ~retries:1 ~on_settle:(fun _ r -> got := Some r) next in
  check Alcotest.int "settled" 1 st.O.st_settled;
  check Alcotest.int "quarantined" 0 st.O.st_quarantined;
  match !got with
  | Some r ->
      check Alcotest.string "failure class" "Failure" (O.verdict_class r.O.verdict)
  | None -> Alcotest.fail "no report"

(* A job whose retry budget runs out on a stall counts once as a pool
   stall — the counter behind the CLI's "pool : stalls=" line and the
   telemetry stall tally — in the settle path as in the quarantine path. *)
let stream_counts_exhausted_stall () =
  let c = Octo_targets.Registry.find 1 in
  let inject =
    Faultinject.create ~seed:3 ~rate:0.0 ~site_rates:[ (Faultinject.Worker_stall, 1.0) ] ()
  in
  let job =
    O.job ~config:{ O.default_config with O.inject } ~label:"wedge"
      ~s:c.Octo_targets.Registry.s ~t:c.Octo_targets.Registry.t
      ~poc:c.Octo_targets.Registry.poc ()
  in
  let was_on = Metrics.is_on () in
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was_on then Metrics.disable ()) @@ fun () ->
  let stalls () = Metrics.counter_value (Metrics.aggregate ()) Metrics.Pool_stalls in
  let before = stalls () in
  let got = ref None in
  let st =
    O.run_stream ~isolate:O.Domains ~jobs:1 ~retries:0
      ~on_settle:(fun _ r -> got := Some r)
      (O.stream_of_list [ job ])
  in
  check Alcotest.int "settled" 1 st.O.st_settled;
  check Alcotest.int "pool stalls delta" 1 (stalls () - before);
  match !got with
  | Some { O.verdict = O.Failure msg; _ } ->
      check Alcotest.bool "worker stalled" true
        (String.starts_with ~prefix:"worker stalled: " msg)
  | _ -> Alcotest.fail "expected a worker-stalled Failure"

(* Serial streaming pulls the next job only after the previous one has
   settled: perfbench's pull-to-settle latencies rely on it, and a loop
   that pre-pulled up to the default window would silently move them. *)
let stream_serial_interleaves_pull_and_settle () =
  let events = ref [] in
  let src = mini_source 5 in
  let pulls = ref 0 and settles = ref 0 in
  let next () =
    let j = src () in
    if j <> None then begin
      incr pulls;
      events := Printf.sprintf "pull %d" !pulls :: !events
    end;
    j
  in
  let on_settle _ _ =
    incr settles;
    events := Printf.sprintf "settle %d" !settles :: !events
  in
  let st = O.run_stream ~jobs:1 ~on_settle next in
  check Alcotest.int "peak in flight" 1 st.O.st_peak_in_flight;
  check
    Alcotest.(list string)
    "interleaved"
    (List.concat_map (fun i -> [ Printf.sprintf "pull %d" i; Printf.sprintf "settle %d" i ])
       [ 1; 2; 3; 4; 5 ])
    (List.rev !events)

let quarantine_codec_roundtrip () =
  let q =
    {
      O.qlabel = "g00042-tif-clone";
      qkey = "abcd1234";
      qreason = "worker stalled";
      qmessage = "Injected(worker-stall: synthetic wedged worker)";
      qbacktrace = "Raised at ...\nCalled from ...";
      qattempts = 3;
    }
  in
  match O.decode_quarantine (O.encode_quarantine q) with
  | Some q' -> check Alcotest.bool "roundtrip" true (q = q')
  | None -> Alcotest.fail "decode failed"

let quarantine_codec_rejects_junk () =
  check Alcotest.bool "empty" true (O.decode_quarantine "" = None);
  check Alcotest.bool "foreign" true (O.decode_quarantine "OPR3xxxx" = None);
  let enc = O.encode_quarantine
      { O.qlabel = "l"; qkey = "k"; qreason = "r"; qmessage = "m"; qbacktrace = "b"; qattempts = 1 }
  in
  check Alcotest.bool "truncated" true
    (O.decode_quarantine (String.sub enc 0 (String.length enc - 1)) = None);
  check Alcotest.bool "padded" true (O.decode_quarantine (enc ^ "x") = None)

(* ------------------------------------------------------------------ *)
(* Probe sharing: a stream worker reuses S's crash run and taint across
   consecutive jobs of one S. *)

(* [(s_id, job, s, t, poc, ell)] for registry pairs 10-12, which share
   one S. *)
let registry_group () =
  List.map
    (fun idx ->
      let c = Registry.find idx in
      ( Compile.program_digest c.s,
        O.job ~label:(string_of_int idx) ~s:c.s ~t:c.t ~poc:c.poc (),
        c.s,
        c.t,
        c.poc,
        None ))
    [ 10; 11; 12 ]

(* The fan-out of [scan --corpus gen:60:42 --decoys 3]: one job per
   candidate, grouped by S as the scan sorts them, built as the CLI
   builds them ({!Scan.jobs}, ℓ handed to each job's products). *)
let scan_fanout () =
  let probes, targets = Scan.of_source (Source.generated ~seed:42 ~count:60 ()) in
  let targets = targets @ Scan.decoy_targets ~seed:7 ~count:3 in
  let r = Scan.run ~probes ~targets ~n_decoys:3 () in
  List.map2
    (fun (c : Detect.candidate) (jb : Scan.job) ->
      let j =
        O.job ?ell:jb.jb_ell ~label:jb.jb_label ~s:jb.jb_s ~t:jb.jb_t ~poc:jb.jb_poc ()
      in
      O.seed_ell (O.job_products j) jb.jb_derived_ell;
      (c.c_s_label, j, jb.jb_s, jb.jb_t, jb.jb_poc, jb.jb_ell))
    r.candidates (Scan.jobs r)

(* Every report [run_stream] settles for [items], by label. *)
let stream_reports ?config ~jobs items =
  let got = Hashtbl.create 64 in
  let st =
    O.run_stream ?config ~jobs
      ~on_settle:(fun j r -> Hashtbl.replace got (O.job_label j) r)
      (O.stream_of_list (List.map (fun (_, j, _, _, _, _) -> j) items))
  in
  check Alcotest.int "settled" (List.length items) st.O.st_settled;
  List.map (fun (_, j, _, _, _, _) -> Hashtbl.find got (O.job_label j)) items

let same_report label (a : O.report) (b : O.report) =
  check Alcotest.string (label ^ " verdict")
    (Fmt.str "%a" O.pp_verdict a.verdict)
    (Fmt.str "%a" O.pp_verdict b.verdict);
  check Alcotest.bool (label ^ " verdict bytes") true (a.verdict = b.verdict);
  check Alcotest.string (label ^ " ep") a.ep b.ep;
  check Alcotest.(list string) (label ^ " ell") a.ell b.ell;
  check Alcotest.bool (label ^ " bunches") true (a.bunches = b.bunches);
  check Alcotest.(list string) (label ^ " degradations") a.degradations b.degradations

let stream_shared_probe_matches_run () =
  List.iter
    (fun (name, items) ->
      let alone =
        List.map (fun (_, _, s, t, poc, ell) -> O.run ?ell ~s ~t ~poc ()) items
      in
      List.iter
        (fun jobs ->
          List.iter2
            (fun ((_, j, _, _, _, _), a) b ->
              same_report (Printf.sprintf "%s -j %d %s" name jobs (O.job_label j)) a b)
            (List.combine items alone) (stream_reports ~jobs items))
        [ 1; 2 ])
    [ ("registry 10-12", registry_group ()); ("scan gen:60:42", scan_fanout ()) ]

let taint_spans reports =
  List.fold_left
    (fun n (r : O.report) ->
      match r.metrics with Some m -> n + Metrics.phase_spans m Metrics.Taint | None -> n)
    0 reports

(* Jobs that reached P1, and their distinct (S, PoC, ep) triples. *)
let taint_runs items reports =
  let reached =
    List.filter_map
      (fun ((sid, _, _, _, poc, _), (r : O.report)) ->
        if r.taint = None then None else Some (sid, poc, r.ep))
      (List.combine items reports)
  in
  (List.length reached, List.length (List.sort_uniq compare reached))

let with_metrics f =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

(* Serially each triple is tainted once.  Under [-j 2] which worker takes
   which job of a group is scheduling, so the count is only bounded: at
   least once per triple, at most once per job. *)
let stream_shared_probe_taints_once () =
  with_metrics @@ fun () ->
  List.iter
    (fun (name, items) ->
      let reports = stream_reports ~jobs:1 items in
      let reached, distinct = taint_runs items reports in
      check Alcotest.bool (name ^ ": S is shared") true (distinct < reached);
      check Alcotest.int (name ^ ": taint spans") distinct (taint_spans reports);
      let spans = taint_spans (stream_reports ~jobs:2 items) in
      check Alcotest.bool
        (Printf.sprintf "%s -j 2: %d <= %d taint spans <= %d" name distinct spans reached)
        true
        (distinct <= spans && spans <= reached))
    [ ("registry 10-12", registry_group ()); ("scan gen:60:42", scan_fanout ()) ]

let stream_injector_runs_every_s_side () =
  with_metrics @@ fun () ->
  let items = registry_group () in
  (* Enabled, but no site ever fires: the verdicts are the clean ones. *)
  let config = { O.default_config with inject = Faultinject.create ~seed:1 ~rate:0.0 () } in
  let reports = stream_reports ~config ~jobs:1 items in
  check Alcotest.int "every job reached P1" 3 (fst (taint_runs items reports));
  List.iter (fun r -> check Alcotest.int "its own taint span" 1 (taint_spans [ r ])) reports

let suite =
  [
    tc "gen: deterministic" gen_deterministic;
    tc "gen: seed sensitivity" gen_seed_sensitivity;
    tc "gen: label shape" gen_label_shape;
    tc "gen: covers all variants and families" gen_covers_all_variants;
    tc "gen: expected classes hold end-to-end" gen_expected_classes;
    tc "source: registry" source_registry;
    tc "source: generated" source_generated;
    tc "source: of_spec" source_of_spec;
    tc "source: directory roundtrip" source_dir_roundtrip;
    tc "source: directory skips malformed" source_dir_skips_malformed;
    tc "source: registry manifest" source_dir_registry_manifest;
    tc "backoff: deterministic" backoff_deterministic;
    tc "backoff: caps and grows" backoff_caps_and_grows;
    tc "backoff: counter" backoff_counter;
    tc "stream: serial settles all" stream_serial_settles_all;
    tc "stream: parallel bounded window" stream_parallel_bounded_window;
    tc "stream: parallel source raise joins workers, next run completes"
      stream_parallel_source_raise_stops_workers;
    tc "stream: quarantines poison" stream_quarantines_poison;
    tc "stream: no handler settles failure" stream_without_handler_settles_failure;
    tc "stream: exhausted stall counts a pool stall" stream_counts_exhausted_stall;
    tc "quarantine codec: roundtrip" quarantine_codec_roundtrip;
    tc "quarantine codec: rejects junk" quarantine_codec_rejects_junk;
    tc "stream: serial pulls only after the previous settle"
      stream_serial_interleaves_pull_and_settle;
    tc "stream: shared probe settles the reports of lone runs"
      stream_shared_probe_matches_run;
    tc "stream: shared probe taints each (S, PoC, ep) once"
      stream_shared_probe_taints_once;
    tc "stream: enabled injector runs every job's S side" stream_injector_runs_every_s_side;
  ]
