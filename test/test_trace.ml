(* Tests for the observability layer: Trace spans (emission, nesting,
   exception safety, schema validation) and the Metrics registry
   (counters, phase histograms, scoped deltas, journal round-trip of
   snapshots, batch-total consistency). *)

module Metrics = Octo_util.Metrics
module Trace = Octo_util.Trace
module Journal = Octo_util.Journal
module Registry = Octo_targets.Registry

let with_metrics f =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

let with_tracing f =
  let path = Filename.temp_file "octotrace" ".jsonl" in
  Trace.enable ~path;
  (try f () with e -> Trace.disable (); Sys.remove path; raise e);
  Trace.disable ();
  path

let write_file path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let ev ?(tid = 0) ~name ~cat ~ph ts =
  Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d},"
    name cat ph ts tid

(* -- trace emission ---------------------------------------------------- *)

let test_span_file_valid () =
  let path =
    with_tracing (fun () ->
        Trace.with_cat_span ~cat:"pair" ~name:"outer" (fun () ->
            Trace.with_span Trace.Taint "t1" (fun () -> ());
            Trace.with_span Trace.Symex "s1" (fun () ->
                Trace.with_span Trace.Combine "nested" (fun () -> ())));
        (* A second domain gets its own tid lane with its own stack. *)
        Domain.join
          (Domain.spawn (fun () -> Trace.with_span Trace.Solve "other-domain" (fun () -> ()))))
  in
  (match Trace.validate_file path with
  | Ok s ->
      Alcotest.(check int) "spans" 5 s.Trace.spans;
      Alcotest.(check int) "events" 10 s.Trace.events;
      Alcotest.(check (list string)) "phases covered"
        [ "taint"; "symex"; "solve"; "combine" ]
        s.Trace.phases_covered
  | Error msg -> Alcotest.failf "expected valid trace, got: %s" msg);
  Sys.remove path

let test_span_exception_safety () =
  let path =
    with_tracing (fun () ->
        try
          Trace.with_span Trace.Verify "raising" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  (match Trace.validate_file path with
  | Ok s -> Alcotest.(check int) "span closed despite raise" 1 s.Trace.spans
  | Error msg -> Alcotest.failf "expected valid trace, got: %s" msg);
  Sys.remove path

let test_span_inactive_is_passthrough () =
  (* Neither tracing nor metrics on: with_span must run the thunk
     directly. *)
  let r = Trace.with_span Trace.Taint "idle" (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 r

(* -- validator rejections ---------------------------------------------- *)

let expect_invalid ~substr lines =
  let path = Filename.temp_file "octotrace" ".jsonl" in
  write_file path ("[" :: lines);
  let r = Trace.validate_file path in
  Sys.remove path;
  match r with
  | Ok _ -> Alcotest.failf "expected invalid (%s), got Ok" substr
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        nn = 0 || go 0
      in
      if not (contains msg substr) then
        Alcotest.failf "error %S does not mention %S" msg substr

let test_validator_rejects () =
  expect_invalid ~substr:"unbalanced" [ ev ~name:"a" ~cat:"taint" ~ph:"B" 1.0 ];
  expect_invalid ~substr:"no open span" [ ev ~name:"a" ~cat:"taint" ~ph:"E" 1.0 ];
  expect_invalid ~substr:"does not match"
    [
      ev ~name:"a" ~cat:"taint" ~ph:"B" 1.0;
      ev ~name:"b" ~cat:"taint" ~ph:"E" 2.0;
    ];
  expect_invalid ~substr:"non-monotonic"
    [
      ev ~name:"a" ~cat:"taint" ~ph:"B" 5.0;
      ev ~name:"a" ~cat:"taint" ~ph:"E" 1.0;
    ];
  expect_invalid ~substr:"unknown cat"
    [ ev ~name:"a" ~cat:"mystery" ~ph:"B" 1.0; ev ~name:"a" ~cat:"mystery" ~ph:"E" 2.0 ];
  (* Distinct tids have independent stacks and clocks: interleaved lanes
     that would be invalid on one tid are fine on two. *)
  let path = Filename.temp_file "octotrace" ".jsonl" in
  write_file path
    [
      "[";
      ev ~tid:1 ~name:"a" ~cat:"taint" ~ph:"B" 5.0;
      ev ~tid:2 ~name:"b" ~cat:"solve" ~ph:"B" 1.0;
      ev ~tid:1 ~name:"a" ~cat:"taint" ~ph:"E" 6.0;
      ev ~tid:2 ~name:"b" ~cat:"solve" ~ph:"E" 2.0;
    ];
  (match Trace.validate_file path with
  | Ok s -> Alcotest.(check int) "two lanes, two spans" 2 s.Trace.spans
  | Error msg -> Alcotest.failf "per-tid lanes should validate: %s" msg);
  Sys.remove path

(* -- metrics ----------------------------------------------------------- *)

let test_counters_and_hist () =
  with_metrics (fun () ->
      let (), d = Metrics.scoped (fun () ->
          Metrics.incr Metrics.Cache_hits;
          Metrics.add Metrics.Vm_steps 41;
          Metrics.incr Metrics.Vm_steps;
          (* 1000 ns lands in log2 bucket 9 (512 <= 1000 < 1024). *)
          Metrics.observe_phase Metrics.Taint 1000)
      in
      let d = Option.get d in
      Alcotest.(check int) "cache-hits" 1 (Metrics.counter_value d Metrics.Cache_hits);
      Alcotest.(check int) "vm-steps" 42 (Metrics.counter_value d Metrics.Vm_steps);
      Alcotest.(check int) "taint spans" 1 (Metrics.phase_spans d Metrics.Taint);
      Alcotest.(check int) "taint ns" 1000 (Metrics.phase_total_ns d Metrics.Taint);
      Alcotest.(check int) "hist bucket 9" 1 (Metrics.phase_hist_bucket d Metrics.Taint 9);
      Alcotest.(check int) "hist bucket 8" 0 (Metrics.phase_hist_bucket d Metrics.Taint 8))

let test_disabled_records_nothing () =
  Metrics.disable ();
  let before = Metrics.aggregate () in
  Metrics.incr Metrics.Cache_hits;
  Metrics.observe_phase Metrics.Solve 5000;
  let after = Metrics.aggregate () in
  Alcotest.(check bool) "no mutation while off" true (Metrics.equal before after)

let test_pipeline_metrics_cover_phases () =
  let c = Registry.find 1 in
  with_metrics (fun () ->
      let r = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
      match r.metrics with
      | None -> Alcotest.fail "expected Some metrics with collection on"
      | Some m ->
          List.iter
            (fun p ->
              if Metrics.phase_spans m p < 1 then
                Alcotest.failf "phase %s has no spans" (Metrics.phase_name p))
            Metrics.all_phases;
          Alcotest.(check bool) "vm steps counted" true
            (Metrics.counter_value m Metrics.Vm_steps > 0);
          Alcotest.(check bool) "solver nodes counted" true
            (Metrics.counter_value m Metrics.Solver_nodes > 0);
          Alcotest.(check bool) "constraint adds counted" true
            (Metrics.counter_value m Metrics.Constraint_adds > 0);
          Alcotest.(check bool) "symex decisions counted" true
            (Metrics.counter_value m Metrics.Symex_states_forked > 0))

(* A lone run shares its S side with nothing: the second of two runs on
   one pair still reports every phase. *)
let test_back_to_back_runs_cover_phases () =
  let c = Registry.find 1 in
  with_metrics (fun () ->
      for i = 1 to 2 do
        match (Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc ()).metrics with
        | None -> Alcotest.fail "expected Some metrics with collection on"
        | Some m ->
            List.iter
              (fun p ->
                if Metrics.phase_spans m p < 1 then
                  Alcotest.failf "run %d: phase %s has no spans" i (Metrics.phase_name p))
              Metrics.all_phases
      done)

let test_metrics_off_means_none () =
  Metrics.disable ();
  let c = Registry.find 1 in
  let r = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
  Alcotest.(check bool) "metrics absent when off" true (r.metrics = None)

(* The acceptance-criterion identity: the batch summary sums the per-pair
   report snapshots, and the journal records those same snapshots — so
   the two totals must be equal, field for field. *)
let test_totals_match_journal () =
  let jpath = Filename.temp_file "octotrace" ".jrnl" in
  Sys.remove jpath;
  with_metrics (fun () ->
      let w = Journal.create ~fsync:false ~path:jpath () in
      let batch =
        List.filter_map
          (fun idx ->
            Option.map
              (fun (c : Registry.case) ->
                Octopocs.job ~label:(string_of_int idx) ~s:c.s ~t:c.t ~poc:c.poc ())
              (Registry.find_opt idx))
          [ 1; 2; 10 ]
      in
      let on_settle label r =
        Journal.append w (Octopocs.encode_result ~label ~key:"k" r)
      in
      let results = Octopocs.run_all ~on_settle batch in
      Journal.close w;
      let report_total =
        Metrics.sum (List.filter_map (fun (_, r) -> r.Octopocs.metrics) results)
      in
      let journal_total =
        Metrics.sum
          (List.filter_map
             (fun payload ->
               match Octopocs.decode_result payload with
               | Some (_, _, rep) -> rep.Octopocs.metrics
               | None -> None)
             (Journal.replay jpath).records)
      in
      Alcotest.(check bool) "three snapshots journaled" true
        (Metrics.counter_value journal_total Metrics.Vm_steps > 0);
      Alcotest.(check bool) "summary totals = journal totals" true
        (Metrics.equal report_total journal_total));
  Sys.remove jpath

let test_aggregate_is_per_domain_sum () =
  with_metrics (fun () ->
      Metrics.incr Metrics.Cache_hits;
      Domain.join (Domain.spawn (fun () -> Metrics.incr Metrics.Cache_hits));
      Alcotest.(check bool) "aggregate = sum(per_domain)" true
        (Metrics.equal (Metrics.aggregate ()) (Metrics.sum (Metrics.per_domain ()))))

let suite =
  [
    Alcotest.test_case "spans: nested emission validates" `Quick test_span_file_valid;
    Alcotest.test_case "spans: exception-safe begin/end" `Quick test_span_exception_safety;
    Alcotest.test_case "spans: inactive is pure passthrough" `Quick
      test_span_inactive_is_passthrough;
    Alcotest.test_case "validator: rejects malformed traces" `Quick test_validator_rejects;
    Alcotest.test_case "metrics: counters, phases, histogram" `Quick test_counters_and_hist;
    Alcotest.test_case "metrics: disabled records nothing" `Quick test_disabled_records_nothing;
    Alcotest.test_case "metrics: pipeline covers all six phases" `Quick
      test_pipeline_metrics_cover_phases;
    Alcotest.test_case "metrics: back-to-back runs of one pair each cover every phase" `Quick
      test_back_to_back_runs_cover_phases;
    Alcotest.test_case "metrics: off -> report.metrics = None" `Quick test_metrics_off_means_none;
    Alcotest.test_case "metrics: batch totals match journal snapshots" `Quick
      test_totals_match_journal;
    Alcotest.test_case "metrics: aggregate equals per-domain sum" `Quick
      test_aggregate_is_per_domain_sum;
  ]
