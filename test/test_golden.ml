(* Golden regression tests pinning Table II and the explain narratives.

   Every registry pair is run at DEFAULT budgets and the resulting
   (pair, verdict-class, degradations) tuples are compared line-for-line
   against the checked-in [test/golden_table2.txt].  Any behavior change
   that moves a verdict or climbs a ladder rung shows up as a readable
   diff here, not as a silent drift.

   The same treatment pins the [explain] subcommand's output for three
   representative pairs: pair 1 (Triggered, Type-I — the happy path with
   taint, pinning and crash-site evidence), pair 13 (Not_triggerable
   via Constraint_conflict — the minimized core naming the replayed
   argument that clashes with T's own path constraint) and pair 3
   (Triggered on a CWE-835 hang that the VM proved to be a cycle).  The narrative is
   documented as deterministic and diffable; these goldens plus the
   determinism case below are what hold that promise.

   Regeneration (after an INTENTIONAL change, from the repo root):

     OCTOPOCS_REGEN_GOLDEN=$PWD/test/golden_table2.txt dune runtest --force

   All golden files (Table II and the explain narratives) are rewritten
   into the env var's directory and the tests pass; review and commit the
   diff. *)

module Registry = Octo_targets.Registry
module Prov = Octopocs.Provenance

let golden_path = "golden_table2.txt"

let render_lines () =
  List.map
    (fun (c : Registry.case) ->
      let r = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
      Printf.sprintf "pair %-2d %-8s %s" c.idx
        (Octopocs.verdict_class r.verdict)
        (match r.degradations with [] -> "-" | ds -> String.concat "," ds))
    Registry.all

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let regen_target () =
  match Sys.getenv_opt "OCTOPOCS_REGEN_GOLDEN" with
  | Some out when out <> "" -> Some out
  | _ -> None

let golden_test () =
  let lines = render_lines () in
  match regen_target () with
  | Some out ->
      let oc = open_out out in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      Printf.printf "regenerated %s (%d lines)\n" out (List.length lines)
  | None ->
      if not (Sys.file_exists golden_path) then
        Alcotest.failf
          "%s missing — regenerate with OCTOPOCS_REGEN_GOLDEN=$PWD/test/%s dune runtest \
           --force"
          golden_path golden_path;
      Alcotest.(check (list string)) "Table II verdicts and degradations" (read_lines golden_path)
        lines

(* -- explain narratives ------------------------------------------------ *)

(* One full pipeline run of pair [idx] with provenance collection on,
   rendered exactly as the [explain] subcommand would. *)
let render_explain idx =
  let c = Registry.find idx in
  let was_on = Prov.is_on () in
  if not was_on then Prov.enable ();
  let r = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
  if not was_on then Prov.disable ();
  Octopocs.explain_report ~label:(Printf.sprintf "pair %d" idx) r

let explain_golden_file idx = Printf.sprintf "golden_explain_pair%d.txt" idx

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let explain_golden_test idx () =
  let rendered = render_explain idx in
  let file = explain_golden_file idx in
  match regen_target () with
  | Some out ->
      (* The env var names the Table II golden; its directory receives
         every regenerated golden file. *)
      let path = Filename.concat (Filename.dirname out) file in
      let oc = open_out_bin path in
      output_string oc rendered;
      close_out oc;
      Printf.printf "regenerated %s (%d bytes)\n" path (String.length rendered)
  | None ->
      if not (Sys.file_exists file) then
        Alcotest.failf
          "%s missing — regenerate with OCTOPOCS_REGEN_GOLDEN=$PWD/test/%s dune runtest \
           --force"
          file golden_path;
      Alcotest.(check string)
        (Printf.sprintf "explain narrative for pair %d" idx)
        (read_file file) rendered

(* Pair 3 (CWE-835) is Triggered on a hang: the P4 crash site must say the
   hang is a proven cycle, not a slow T that ran out of steps. *)
let explain_pair3_proven_cycle () =
  let rendered = render_explain 3 in
  let has needle = Test_util.contains ~needle rendered in
  Alcotest.(check bool) "triggered" true (has "verdict : TRIGGERED");
  Alcotest.(check bool) "hang rests on a proven cycle" true
    (has "verify: crash hang (step budget exhausted; proven cycle, period ")

(* Two independent full runs must render byte-identically — the narrative
   carries no timings, addresses or other run-varying data. *)
let explain_deterministic () =
  let a = render_explain 13 in
  let b = render_explain 13 in
  Alcotest.(check string) "explain output is byte-stable across runs" a b

(* -- report aggregator ------------------------------------------------- *)

module Journal = Octo_util.Journal
module Metrics = Octo_util.Metrics

(* A synthetic-but-realistic run: real verdicts from three registry
   pairs journaled across two shards, one hand-built quarantine record,
   and one hand-built latency histogram (real histograms carry wall
   time, which a golden cannot pin).  The render must be byte-stable —
   across invocations AND across machines. *)
let render_report () =
  let dir = Filename.temp_file "octo_report_golden" "" in
  Sys.remove dir;
  let w = Journal.Sharded.create ~dir ~shards:2 () in
  let fixed_metrics =
    let s = Metrics.zero () in
    let put p spans ns buckets =
      let i = Metrics.phase_index p in
      s.Metrics.phase_count.(i) <- spans;
      s.Metrics.phase_ns.(i) <- ns;
      List.iter
        (fun (b, n) -> s.Metrics.phase_hist.((i * Metrics.nbuckets) + b) <- n)
        buckets
    in
    put Metrics.Taint 10 5_000 [ (8, 7); (9, 3) ];
    put Metrics.Solve 4 66_000 [ (13, 3); (15, 1) ];
    s
  in
  List.iter
    (fun (idx, metrics) ->
      let c = Registry.find idx in
      let r = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
      let r = { r with Octopocs.metrics } in
      let label = string_of_int idx in
      Journal.Sharded.append w ~key:label (Octopocs.encode_result ~label ~key:label r))
    [ (1, Some fixed_metrics); (2, None); (13, None) ];
  Journal.Sharded.close w;
  let qw = Journal.create ~path:(Filename.concat dir "quarantine.jrnl") () in
  Journal.append qw
    (Octopocs.encode_quarantine
       {
         Octopocs.qlabel = "9";
         qkey = "9";
         qreason = "worker crashed";
         qmessage = "Failure(\"injected\")";
         qbacktrace = "";
         qattempts = 3;
       });
  Journal.close qw;
  let rendered =
    match Octo_report.Report.of_files_rendered ~journal:dir () with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "report failed: %s" msg
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  rendered

let report_golden_file = "golden_report.txt"

let report_golden_test () =
  let rendered = render_report () in
  match regen_target () with
  | Some out ->
      let path = Filename.concat (Filename.dirname out) report_golden_file in
      let oc = open_out_bin path in
      output_string oc rendered;
      close_out oc;
      Printf.printf "regenerated %s (%d bytes)\n" path (String.length rendered)
  | None ->
      if not (Sys.file_exists report_golden_file) then
        Alcotest.failf
          "%s missing — regenerate with OCTOPOCS_REGEN_GOLDEN=$PWD/test/%s dune runtest \
           --force"
          report_golden_file golden_path;
      Alcotest.(check string) "run report" (read_file report_golden_file) rendered

let report_deterministic () =
  let a = render_report () in
  let b = render_report () in
  Alcotest.(check string) "report output is byte-stable across runs" a b

let suite =
  [
    Alcotest.test_case "Table II golden (default budgets)" `Quick golden_test;
    Alcotest.test_case "report golden (sharded journal + quarantine)" `Quick
      report_golden_test;
    Alcotest.test_case "report is deterministic across runs" `Quick report_deterministic;
    Alcotest.test_case "explain golden: pair 1 (Triggered, Type-I)" `Quick
      (explain_golden_test 1);
    Alcotest.test_case "explain golden: pair 13 (constraint conflict)" `Quick
      (explain_golden_test 13);
    Alcotest.test_case "explain golden: pair 3 (hang, proven cycle)" `Quick
      (explain_golden_test 3);
    Alcotest.test_case "explain: pair 3 verdict rests on a proven cycle" `Quick
      explain_pair3_proven_cycle;
    Alcotest.test_case "explain is deterministic across runs" `Quick explain_deterministic;
  ]
