(* Tests for the durable run layer: the write-ahead journal (framing,
   torn-write recovery, injected torn appends), the verdict record codec,
   content-keyed verdict caching, the worker-fault and fail-fast
   semantics of batch verification, and the journaled run ([Runlog]:
   resume, clobber refusal, skip rules) with the CLI built on it. *)

module Journal = Octo_util.Journal
module Faultinject = Octo_util.Faultinject
module Registry = Octo_targets.Registry

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let tmp_journal () =
  let path = Filename.temp_file "octotest" ".jrnl" in
  Sys.remove path;
  path

let with_tmp f =
  let path = tmp_journal () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let append_raw path bytes =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  output_string oc bytes;
  close_out oc

let quar label =
  {
    Octopocs.qlabel = label;
    qkey = "k-" ^ label;
    qreason = "oom";
    qmessage = "child out of memory";
    qbacktrace = "";
    qattempts = 2;
  }

let str_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A record with every byte class a payload can contain. *)
let binary_record = "\x00\x01|\xff\n framed \x00 bytes \r\n" ^ String.make 300 '\xaa'

(* ------------------------------------------------------------------ *)
(* Journal framing *)

let journal_roundtrip () =
  with_tmp (fun path ->
      let w = Journal.create ~path () in
      let records = [ "first"; ""; binary_record; "last" ] in
      List.iter (Journal.append w) records;
      Journal.close w;
      let r = Journal.replay path in
      check Alcotest.(list string) "records" records r.Journal.records;
      check Alcotest.bool "not torn" false r.Journal.torn)

let journal_missing_file_is_empty () =
  let r = Journal.replay "/nonexistent/octopocs.jrnl" in
  check Alcotest.(list string) "no records" [] r.Journal.records;
  check Alcotest.bool "not torn" false r.Journal.torn

let journal_header_garbage_is_torn () =
  with_tmp (fun path ->
      append_raw path "this is not a journal at all";
      let r = Journal.replay path in
      check Alcotest.(list string) "nothing recovered" [] r.Journal.records;
      check Alcotest.bool "flagged torn" true r.Journal.torn;
      check Alcotest.int "no valid prefix" 0 r.Journal.valid_bytes)

let journal_torn_tail_dropped () =
  with_tmp (fun path ->
      let w = Journal.create ~path () in
      Journal.append w "alpha";
      Journal.append w "beta";
      Journal.close w;
      let clean_len = (Unix.stat path).Unix.st_size in
      (* A frame header promising 64 payload bytes that never arrived. *)
      append_raw path "\x40\x00\x00\x00\x99\x99\x99\x99partial";
      let r = Journal.replay path in
      check Alcotest.(list string) "prefix intact" [ "alpha"; "beta" ] r.Journal.records;
      check Alcotest.bool "flagged torn" true r.Journal.torn;
      check Alcotest.int "valid prefix ends before tear" clean_len r.Journal.valid_bytes)

let journal_short_frame_header_dropped () =
  with_tmp (fun path ->
      let w = Journal.create ~path () in
      Journal.append w "alpha";
      Journal.close w;
      append_raw path "\x05\x00\x00";  (* 3 bytes: not even a length field *)
      let r = Journal.replay path in
      check Alcotest.(list string) "prefix intact" [ "alpha" ] r.Journal.records;
      check Alcotest.bool "flagged torn" true r.Journal.torn)

let journal_crc_corruption_ends_prefix () =
  with_tmp (fun path ->
      let w = Journal.create ~path () in
      Journal.append w "alpha";
      Journal.append w "beta";
      Journal.append w "gamma";
      Journal.close w;
      (* Flip one payload byte of the SECOND record: it and everything after
         it is untrusted (frame boundaries are gone past the first bad
         frame). *)
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let second_payload =
        String.length Journal.header + (8 + String.length "alpha") + 8
      in
      let b = Bytes.of_string data in
      Bytes.set b second_payload 'X';
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      let r = Journal.replay path in
      check Alcotest.(list string) "only the pre-corruption prefix" [ "alpha" ]
        r.Journal.records;
      check Alcotest.bool "flagged torn" true r.Journal.torn)

let journal_absurd_length_is_torn () =
  with_tmp (fun path ->
      let w = Journal.create ~path () in
      Journal.append w "alpha";
      Journal.close w;
      (* Length field far beyond max_record_len: mid-frame garbage, not a
         record we could ever have written. *)
      append_raw path "\xff\xff\xff\x7f\x00\x00\x00\x00";
      let r = Journal.replay path in
      check Alcotest.(list string) "prefix intact" [ "alpha" ] r.Journal.records;
      check Alcotest.bool "flagged torn" true r.Journal.torn)

let journal_open_resume_truncates_and_appends () =
  with_tmp (fun path ->
      let w = Journal.create ~path () in
      Journal.append w "alpha";
      Journal.append w "beta";
      Journal.close w;
      append_raw path "\x10\x00\x00\x00\x00\x00\x00\x00half";
      let w2, recovered = Journal.open_resume ~path () in
      check Alcotest.(list string) "recovered prefix" [ "alpha"; "beta" ] recovered;
      Journal.append w2 "gamma";
      Journal.close w2;
      let r = Journal.replay path in
      check Alcotest.(list string) "tail repaired, append clean"
        [ "alpha"; "beta"; "gamma" ] r.Journal.records;
      check Alcotest.bool "no longer torn" false r.Journal.torn)

let journal_open_resume_fresh_and_garbage () =
  with_tmp (fun path ->
      (* Missing file: starts a fresh journal. *)
      let w, recovered = Journal.open_resume ~path () in
      check Alcotest.(list string) "nothing to recover" [] recovered;
      Journal.append w "only";
      Journal.close w;
      check Alcotest.(list string) "fresh journal works" [ "only" ]
        (Journal.replay path).Journal.records);
  with_tmp (fun path ->
      (* Headerless garbage: no valid prefix, so resume starts over. *)
      append_raw path "garbage, not a journal";
      let w, recovered = Journal.open_resume ~path () in
      check Alcotest.(list string) "nothing recovered from garbage" [] recovered;
      Journal.append w "fresh";
      Journal.close w;
      let r = Journal.replay path in
      check Alcotest.(list string) "restarted clean" [ "fresh" ] r.Journal.records;
      check Alcotest.bool "clean" false r.Journal.torn)

let journal_injected_torn_write () =
  with_tmp (fun path ->
      let inject =
        Faultinject.create ~rate:0.0 ~site_rates:[ (Faultinject.Journal_write, 1.0) ]
          ~seed:1 ()
      in
      let w = Journal.create ~inject ~path () in
      (match Journal.append w "doomed" with
      | () -> Alcotest.fail "expected Injected"
      | exception Faultinject.Injected _ -> ());
      (* The simulated process is dead: later appends silently go nowhere. *)
      Journal.append w "after poison";
      Journal.close w;
      let r = Journal.replay path in
      check Alcotest.(list string) "half-frame recovered as nothing" [] r.Journal.records;
      check Alcotest.bool "torn" true r.Journal.torn;
      (* Resume repairs the tear and appending works again. *)
      let w2, recovered = Journal.open_resume ~path () in
      check Alcotest.(list string) "empty recovery" [] recovered;
      Journal.append w2 "reborn";
      Journal.close w2;
      check Alcotest.(list string) "clean after resume" [ "reborn" ]
        (Journal.replay path).Journal.records)

let journal_append_after_close_rejected () =
  with_tmp (fun path ->
      let w = Journal.create ~path () in
      Journal.close w;
      Journal.close w;  (* idempotent *)
      match Journal.append w "late" with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let crc32_check_value () =
  (* The CRC-32/IEEE check value from the rocksoft catalogue. *)
  check Alcotest.int "crc32(123456789)" 0xCBF43926 (Journal.crc32 "123456789")

(* ------------------------------------------------------------------ *)
(* Verdict record codec *)

let sample_reports : (string * Octopocs.report) list =
  let base = Octopocs.failure_report "x" in
  [
    ( "triggered-I",
      { base with
        verdict = Octopocs.Triggered { poc' = binary_record; ptype = Octopocs.Type_I };
        ep = "mjpg_scan"; ell = [ "a"; "b" ]; elapsed_s = 1.25 } );
    ( "triggered-II",
      { base with
        verdict = Octopocs.Triggered { poc' = ""; ptype = Octopocs.Type_II };
        degradations = [ "symex-escalate"; "sym-file-degrade" ] } );
    ("nt-ep", { base with verdict = Octopocs.Not_triggerable Octopocs.Ep_not_called });
    ("nt-dead", { base with verdict = Octopocs.Not_triggerable Octopocs.Program_dead });
    ("nt-unsat", { base with verdict = Octopocs.Not_triggerable Octopocs.Unsat_model });
    ( "nt-conflict",
      { base with verdict = Octopocs.Not_triggerable (Octopocs.Constraint_conflict 3) } );
    ("failure", { base with verdict = Octopocs.Failure "CFG recovery failed: x@3" });
  ]

let codec_roundtrip () =
  List.iter
    (fun (name, (r : Octopocs.report)) ->
      let payload = Octopocs.encode_result ~label:name ~key:"k123" r in
      match Octopocs.decode_result payload with
      | None -> Alcotest.failf "%s: decode returned None" name
      | Some (label, key, d) ->
          check Alcotest.string (name ^ " label") name label;
          check Alcotest.string (name ^ " key") "k123" key;
          check Alcotest.bool (name ^ " verdict") true (d.verdict = r.verdict);
          check Alcotest.string (name ^ " ep") r.ep d.ep;
          check Alcotest.(list string) (name ^ " ell") r.ell d.ell;
          check Alcotest.(list string) (name ^ " degradations") r.degradations d.degradations;
          check (Alcotest.float 0.0) (name ^ " elapsed") r.elapsed_s d.elapsed_s)
    sample_reports

let codec_rejects_malformed () =
  let valid =
    Octopocs.encode_result ~label:"1" ~key:"k" (snd (List.hd sample_reports))
  in
  (* Every strict prefix is an incomplete record; every version or tag
     perturbation is a foreign record.  None may crash the decoder. *)
  for cut = 0 to String.length valid - 1 do
    match Octopocs.decode_result (String.sub valid 0 cut) with
    | None -> ()
    | Some _ -> Alcotest.failf "prefix of length %d decoded" cut
  done;
  check Alcotest.bool "trailing garbage rejected" true
    (Octopocs.decode_result (valid ^ "x") = None);
  check Alcotest.bool "foreign version rejected" true
    (Octopocs.decode_result ("XXXX" ^ String.sub valid 4 (String.length valid - 4)) = None);
  check Alcotest.bool "empty rejected" true (Octopocs.decode_result "" = None)

(* ------------------------------------------------------------------ *)
(* Content keys *)

let content_key_stable_and_sensitive () =
  let c1 = Registry.find 1 and c2 = Registry.find 2 in
  let key ?config ?ell (c : Registry.case) =
    Octopocs.content_key ?config ?ell ~s:c.s ~t:c.t ~poc:c.poc ()
  in
  check Alcotest.string "deterministic" (key c1) (key c1);
  check Alcotest.bool "different pair, different key" true (key c1 <> key c2);
  check Alcotest.bool "poc change forces re-run" true
    (key c1 <> Octopocs.content_key ~s:c1.s ~t:c1.t ~poc:(c1.poc ^ "\x00") ());
  check Alcotest.bool "ell override changes key" true (key c1 <> key ~ell:[ "mjpg_scan" ] c1);
  let sx = Octopocs.default_config.symex in
  let budget = { Octopocs.default_config with symex = { sx with theta = sx.theta + 1 } } in
  check Alcotest.bool "budget change forces re-run" true (key c1 <> key ~config:budget c1);
  (* Fault injection perturbs a run, not the pair's identity: a resumed
     chaos batch must accept the journaled verdicts. *)
  let injected =
    { Octopocs.default_config with
      inject = Faultinject.create ~rate:0.5 ~seed:9 () }
  in
  check Alcotest.string "inject excluded from key" (key c1) (key ~config:injected c1)

(* The keys an earlier build wrote into test/fixtures/journal.jrnl (see
   journal.golden) for the 8 pairs of gen:8:42, which g00003 reached only
   as a quarantine record.  Each is rebuilt here the way [verify-all
   --corpus] builds it, at the default config: if a key moves, a resumed
   run re-verifies every pair of every existing journal. *)
let fixture_keys =
  [
    ("g00000-j2k-guard", "72660decfc3b76c94119a68349b4d14b");
    ("g00001-gif-conflict", "863d7df098b092b5796329c0ba34fd82");
    ("g00002-j2k-clone", "be01c5317b7798628f4be74243cbea16");
    ("g00003-tif-guard", "484deb2cd39f450aeb3ecd733fcc1f2a");
    ("g00004-avi-clone", "9b53b58e94c466ff483c6a6e4c8457a0");
    ("g00005-mjpg-clone", "e0e3c1060e74c7c783f897c4c9d04bca");
    ("g00006-gif-clone", "56b3e5daf2460db3fec4fac5ebd3e36c");
    ("g00007-j2k-clone", "9516bc640c84eecbff17b7c93a12c972");
  ]

let content_keys_match_fixture_journal () =
  let module Runlog = Octo_report.Runlog in
  let module Source = Octo_targets.Source in
  let src = Source.generated ~seed:42 ~count:8 () in
  let rec keys acc =
    match Source.next src with
    | None -> List.rev acc
    | Some (p : Source.pair) ->
        let e =
          Runlog.entry ~config:Octopocs.default_config ?ell:p.pell ?expected:p.pexpected
            ~label:p.plabel ~s:p.ps ~t:p.pt ~poc:p.ppoc ()
        in
        keys ((e.label, e.key) :: acc)
  in
  check Alcotest.(list (pair string string)) "keys of the fixture journal" fixture_keys (keys [])

(* ------------------------------------------------------------------ *)
(* Worker faults, fail-fast and settle callbacks *)

let run_all_maps_stall_to_failure () =
  (* A forced worker-stall with no retries must settle as the structured
     "worker stalled" Failure — the CLI maps it to the tool-crash exit. *)
  let c = Registry.find 1 in
  let config =
    { Octopocs.default_config with
      inject =
        Faultinject.create ~rate:0.0 ~site_rates:[ (Faultinject.Worker_stall, 1.0) ] ~seed:4 () }
  in
  let batch = [ Octopocs.job ~config ~label:"1" ~s:c.s ~t:c.t ~poc:c.poc () ] in
  match Octopocs.run_all ~jobs:2 ~retries:0 batch with
  | [ ("1", (r : Octopocs.report)) ] -> (
      match r.verdict with
      | Octopocs.Failure msg ->
          check Alcotest.bool "stall failure message" true
            (String.length msg >= 14 && String.sub msg 0 14 = "worker stalled")
      | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v))
  | _ -> Alcotest.fail "expected one labelled report"

let run_all_duplicate_labels_keep_positions () =
  (* Reports are keyed by input position: two jobs sharing a label (one
     sabotaged, one healthy) and the same job value listed twice must
     each come back with their own report. *)
  let c = Registry.find 1 in
  let crash =
    { Octopocs.default_config with
      inject =
        Faultinject.create ~rate:0.0 ~site_rates:[ (Faultinject.Worker_crash, 1.0) ] ~seed:5 () }
  in
  let healthy = Octopocs.job ~label:"x" ~s:c.s ~t:c.t ~poc:c.poc () in
  let batch =
    [ Octopocs.job ~config:crash ~label:"x" ~s:c.s ~t:c.t ~poc:c.poc (); healthy; healthy ]
  in
  let classes =
    Octopocs.run_all ~jobs:2 batch
    |> List.map (fun (l, (r : Octopocs.report)) -> (l, Octopocs.verdict_class r.verdict))
  in
  check Alcotest.(list (pair string string)) "one report per position"
    [ ("x", "Failure"); ("x", "Type-I"); ("x", "Type-I") ]
    classes

let run_all_on_settle_covers_every_pair () =
  let batch =
    List.filter_map
      (fun (c : Registry.case) ->
        if c.idx > 5 then None
        else Some (Octopocs.job ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ()))
      Registry.all
  in
  let settled = ref [] in
  let results =
    Octopocs.run_all ~jobs:2 ~on_settle:(fun label _ -> settled := label :: !settled) batch
  in
  (* on_settle fires from the calling domain in completion order; by the time
     run_all returns, every pair must have been journaled exactly once. *)
  check Alcotest.(list string) "every pair settled once" [ "1"; "2"; "3"; "4"; "5" ]
    (List.sort compare !settled);
  check Alcotest.int "all reports" 5 (List.length results)

(* ------------------------------------------------------------------ *)
(* Resume-merge equivalence, through the run layer the CLI uses *)

module Runlog = Octo_report.Runlog

(* A pull cursor over [cases] as run entries. *)
let source ?(config = Octopocs.default_config) cases =
  Octopocs.stream_of_list
    (List.map
       (fun (c : Registry.case) ->
         Runlog.entry ~config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ())
       cases)

let run_ok r = match r with Ok st -> st | Error msg -> Alcotest.fail msg

let loaded path =
  match Runlog.load path with Ok r -> r | Error msg -> Alcotest.fail msg

(* The side files of removed layouts: quarantine records and telemetry
   samples once went beside the journal. *)
let legacy_quarantine path = path ^ ".quarantine"
let legacy_telemetry path = path ^ ".telemetry"

(* Remove a run's journal (and planted side files). *)
let remove_run path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; legacy_telemetry path; legacy_quarantine path ]

let with_run f = with_tmp (fun path -> Fun.protect ~finally:(fun () -> remove_run path) (fun () -> f path))

(* The labels [on_row] reported as reused from the journal. *)
let cached_labels () =
  let cached = ref [] in
  let on_row (e : Runlog.entry) = function
    | Runlog.Settled { cached = true; _ } -> cached := e.label :: !cached
    | _ -> ()
  in
  (cached, on_row)

(* The labels [on_row] reported as quarantined by an earlier run. *)
let prior_labels () =
  let prior = ref [] in
  let on_row (e : Runlog.entry) = function
    | Runlog.Quarantined { prior = true; _ } -> prior := e.label :: !prior
    | _ -> ()
  in
  (prior, on_row)

let run_all_fail_fast_skips_rest () =
  (* Pair 1 sabotaged with a forced vm-syscall fault settles as a
     Failure: fail-fast must stop handing out pairs, and a pair never
     handed out gets no row and no journal record.  Serially that leaves
     exactly pair 1; with two workers a batch-mate may already be in
     flight, so the pairs with a row are some prefix of the batch. *)
  let vm_fault =
    { Octopocs.default_config with
      inject =
        Faultinject.create ~rate:0.0 ~site_rates:[ (Faultinject.Vm_syscall, 1.0) ] ~seed:2 () }
  in
  let entries () =
    Octopocs.stream_of_list
      (List.filter_map
         (fun (c : Registry.case) ->
           if c.idx > 6 then None
           else
             let config = if c.idx = 1 then vm_fault else Octopocs.default_config in
             Some (Runlog.entry ~config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ()))
         Registry.all)
  in
  let run jobs =
    with_run (fun path ->
        let rows = ref [] in
        let on_row (e : Runlog.entry) row = rows := (e.label, row) :: !rows in
        ignore (run_ok (Runlog.run ~journal:path ~jobs ~fail_fast:true ~on_row (entries ())));
        (match List.assoc_opt "1" !rows with
        | Some (Runlog.Settled { r; cached = false }) ->
            check Alcotest.bool "pair 1 settles as a Failure" true
              (match r.Octopocs.verdict with Octopocs.Failure _ -> true | _ -> false)
        | _ -> Alcotest.fail "pair 1 did not settle");
        let ran = List.sort compare (List.map fst !rows) in
        check Alcotest.(list string) "the pairs with a row are a prefix"
          (List.filteri (fun i _ -> i < List.length ran) [ "1"; "2"; "3"; "4"; "5"; "6" ])
          ran;
        check Alcotest.(list string) "journal records exactly the pairs with a row" ran
          (List.sort compare (List.map (fun (l, _, _) -> l) (loaded path).verdicts));
        ran)
  in
  check Alcotest.(list string) "serial: only pair 1 settled" [ "1" ] (run 1);
  ignore (run 2 : string list)

let resume_merge_equivalence () =
  with_run (fun path ->
      let cases = List.filteri (fun i _ -> i < 3) Registry.all in
      let table () =
        List.map
          (fun (l, k, (r : Octopocs.report)) -> (l, k, r.verdict, r.degradations))
          (loaded path).verdicts
      in
      (* Reference: uninterrupted journaled run of all three pairs. *)
      ignore (run_ok (Runlog.run ~journal:path (source cases)));
      let reference = table () in
      check Alcotest.int "reference complete" 3 (List.length reference);
      (* Interrupted: only pair 1 settles, then the process "dies" mid-
         append.  Resume recovers the prefix, re-runs the rest, and the
         journal must decode to the reference verdict set. *)
      remove_run path;
      ignore (run_ok (Runlog.run ~journal:path (source (List.filteri (fun i _ -> i = 0) cases))));
      append_raw path "\x30\x00\x00\x00\x00\x00\x00\x00torn";
      check Alcotest.bool "tail seen as torn" true (loaded path).torn;
      let cached, on_row = cached_labels () in
      ignore (run_ok (Runlog.run ~journal:path ~resume:true ~on_row (source cases)));
      check Alcotest.(list string) "pair 1 recovered" [ "1" ] !cached;
      check Alcotest.bool "tear repaired" false (loaded path).torn;
      check Alcotest.bool "resumed == uninterrupted" true (reference = table ()))

(* A fresh run refuses an existing journal, and a leftover telemetry file
   of the removed layout, and a refusal creates neither. *)
let runlog_refuses_clobber () =
  with_run (fun path ->
      let c1 = List.filteri (fun i _ -> i = 0) Registry.all in
      let files = [ path; legacy_telemetry path ] in
      List.iter
        (fun existing ->
          append_raw existing "keep";
          (match Runlog.run ~journal:path ~telemetry:true (source c1) with
          | Ok _ -> Alcotest.failf "ran over an existing %s" existing
          | Error msg ->
              check Alcotest.bool "names the file" true
                (str_contains msg (existing ^ " already exists")
                || str_contains msg (existing ^ " is a removed layout")));
          List.iter
            (fun p ->
              if p <> existing then
                check Alcotest.bool (p ^ " not created") false (Sys.file_exists p))
            files;
          let ic = open_in_bin existing in
          check Alcotest.string "existing file untouched" "keep" (input_line ic);
          close_in ic;
          Sys.remove existing)
        files)

(* A journaled verdict is reused only under the same content key: a
   budget change re-runs the pair, and its new record wins. *)
let runlog_same_key_reuse () =
  with_run (fun path ->
      let c1 = List.filteri (fun i _ -> i = 0) Registry.all in
      ignore (run_ok (Runlog.run ~journal:path (source c1)));
      let cached, on_row = cached_labels () in
      let st = run_ok (Runlog.run ~journal:path ~resume:true ~on_row (source c1)) in
      check Alcotest.(list string) "same key reused" [ "1" ] !cached;
      check Alcotest.int "nothing pulled" 0 st.Octopocs.st_pulled;
      let sx = Octopocs.default_config.symex in
      let config = { Octopocs.default_config with symex = { sx with theta = sx.theta + 1 } } in
      let cached, on_row = cached_labels () in
      let st = run_ok (Runlog.run ~journal:path ~resume:true ~on_row (source ~config c1)) in
      check Alcotest.(list string) "changed key not reused" [] !cached;
      check Alcotest.int "re-run" 1 st.Octopocs.st_settled;
      match (loaded path).verdicts with
      | [ (_, key, _) ] ->
          check Alcotest.string "last record wins" (Option.get (source ~config c1 ())).key key
      | v -> Alcotest.failf "expected one verdict per label, got %d" (List.length v))

(* A resumed run skips labels with a quarantine record in the journal. *)
let runlog_prior_quarantine_skip () =
  with_run (fun path ->
      let cases = List.filteri (fun i _ -> i < 2) Registry.all in
      let w = Journal.create ~path () in
      Journal.append w (Octopocs.encode_quarantine (quar "2"));
      Journal.close w;
      let prior, on_row = prior_labels () in
      let st = run_ok (Runlog.run ~journal:path ~resume:true ~on_row (source cases)) in
      check Alcotest.(list string) "pair 2 skipped" [ "2" ] !prior;
      check Alcotest.int "pair 1 run" 1 st.Octopocs.st_pulled;
      let r = loaded path in
      check Alcotest.int "one verdict" 1 (List.length r.verdicts);
      check Alcotest.int "quarantine kept" 1 (List.length r.quarantine))

(* A directory is never a journal, for a run or a load. *)
let runlog_refuses_directory () =
  with_tmp (fun path ->
      Unix.mkdir path 0o755;
      Fun.protect
        ~finally:(fun () -> Unix.rmdir path)
        (fun () ->
          let refused what = function
            | Ok _ -> Alcotest.failf "%s: a directory is not a journal" what
            | Error msg ->
                check Alcotest.bool (what ^ " names the removed layout") true
                  (str_contains msg "is a directory" && str_contains msg "sharded")
          in
          refused "load" (Runlog.load path);
          refused "run" (Runlog.run ~journal:path ~resume:true (source []))))

(* ------------------------------------------------------------------ *)
(* One journal file for verdicts and quarantine records *)

(* The first [k] registry pairs as run entries; the labels in [poison]
   crash on every attempt, so a run quarantines them. *)
let poisoned_source ~poison k =
  let crash =
    { Octopocs.default_config with
      inject =
        Faultinject.create ~rate:0.0 ~site_rates:[ (Faultinject.Worker_crash, 1.0) ] ~seed:3 () }
  in
  Octopocs.stream_of_list
    (List.filteri (fun i _ -> i < k) Registry.all
    |> List.map (fun (c : Registry.case) ->
           let label = string_of_int c.idx in
           let config = if List.mem label poison then crash else Octopocs.default_config in
           Runlog.entry ~config ~label ~s:c.s ~t:c.t ~poc:c.poc ()))

(* A quarantine record without its backtrace (which carries addresses). *)
let quar_fields (q : Octopocs.quarantine) = (q.qlabel, q.qkey, q.qreason, q.qmessage, q.qattempts)

(* A poisoned run with telemetry writes PATH and nothing else; [load]
   returns the quarantine and the samples from PATH, and a resume skips
   the quarantined pair. *)
let runlog_one_file_run () =
  let dir = Filename.temp_file "octorun" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "run.jrnl" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let st =
        run_ok (Runlog.run ~journal:path ~telemetry:true (poisoned_source ~poison:[ "2" ] 3))
      in
      check Alcotest.int "one quarantined" 1 st.Octopocs.st_quarantined;
      check Alcotest.(list string) "only the journal" [ "run.jrnl" ]
        (Array.to_list (Sys.readdir dir));
      let r = loaded path in
      check Alcotest.int "verdicts" 2 (List.length r.verdicts);
      check Alcotest.(list string) "quarantine loaded from the journal" [ "2" ]
        (List.map (fun (q : Octopocs.quarantine) -> q.qlabel) r.quarantine);
      check Alcotest.int "nothing undecodable" 0 r.undecodable;
      check Alcotest.bool "samples in the journal" true (r.samples <> []);
      let prior, on_row = prior_labels () in
      let st =
        run_ok
          (Runlog.run ~journal:path ~telemetry:true ~resume:true ~on_row
             (poisoned_source ~poison:[ "2" ] 3))
      in
      check Alcotest.(list string) "resume skips it" [ "2" ] !prior;
      check Alcotest.int "nothing pulled" 0 st.Octopocs.st_pulled)

(* The armed writer tears a quarantine append like any other: the resume
   truncates the tear, re-runs the pair, and it is quarantined again
   with the same record. *)
let runlog_torn_quarantine_append () =
  with_run (fun path ->
      let reference =
        with_run (fun ref_path ->
            ignore (run_ok (Runlog.run ~journal:ref_path (poisoned_source ~poison:[ "1" ] 1)));
            List.map quar_fields (loaded ref_path).quarantine)
      in
      check Alcotest.int "reference quarantine" 1 (List.length reference);
      let inject =
        Faultinject.create ~rate:0.0 ~site_rates:[ (Faultinject.Journal_write, 1.0) ] ~seed:1 ()
      in
      ignore (run_ok (Runlog.run ~journal:path ~inject (poisoned_source ~poison:[ "1" ] 1)));
      let r = loaded path in
      check Alcotest.bool "torn" true r.torn;
      check Alcotest.int "no quarantine survives the tear" 0 (List.length r.quarantine);
      let st = run_ok (Runlog.run ~journal:path ~resume:true (poisoned_source ~poison:[ "1" ] 1)) in
      check Alcotest.int "re-run" 1 st.Octopocs.st_pulled;
      let r = loaded path in
      check Alcotest.bool "tear truncated" false r.torn;
      check Alcotest.bool "same record" true (reference = List.map quar_fields r.quarantine))

(* An intact frame neither codec decodes is counted and skipped: the
   records after it still load, a resume keeps it, and it ends nothing. *)
let runlog_undecodable_frame_skipped () =
  with_run (fun path ->
      let w = Journal.create ~path () in
      Journal.append w (Octopocs.encode_quarantine (quar "3"));
      Journal.append w "XXXX neither a verdict nor a quarantine record";
      Journal.append w (Octopocs.encode_quarantine (quar "1"));
      Journal.close w;
      let r = loaded path in
      check Alcotest.int "counted" 1 r.undecodable;
      check Alcotest.bool "not torn" false r.torn;
      check Alcotest.(list string) "later record kept" [ "1"; "3" ]
        (List.map (fun (q : Octopocs.quarantine) -> q.qlabel) r.quarantine);
      let prior, on_row = prior_labels () in
      let cases = List.filteri (fun i _ -> i < 3) Registry.all in
      ignore (run_ok (Runlog.run ~journal:path ~resume:true ~on_row (source cases)));
      check Alcotest.(list string) "both quarantines skipped" [ "1"; "3" ]
        (List.sort compare !prior);
      let r = loaded path in
      check Alcotest.int "kept on resume" 1 r.undecodable;
      check Alcotest.int "pair 2 journaled after it" 1 (List.length r.verdicts))

(* A resumed run with telemetry continues the journal's series: its
   samples follow the first run's in the file, [ts_ns] never decreases
   across the two, and the cumulative counts carry on. *)
let runlog_resume_continues_samples () =
  with_run (fun path ->
      let cases = List.filteri (fun i _ -> i < 3) Registry.all in
      let c1 = List.filteri (fun i _ -> i = 0) cases in
      ignore (run_ok (Runlog.run ~journal:path ~telemetry:true (source c1)));
      let first = (loaded path).samples in
      check Alcotest.bool "first run sampled" true (first <> []);
      let last_first = List.nth first (List.length first - 1) in
      check Alcotest.int "first run settled one" 1 last_first.settled;
      ignore (run_ok (Runlog.run ~journal:path ~telemetry:true ~resume:true (source cases)));
      let series = (loaded path).samples in
      check Alcotest.bool "first run's samples kept, resumed ones appended" true
        (List.length series > List.length first
        && List.filteri (fun i _ -> i < List.length first) series = first);
      let ts = List.map (fun (s : Octo_util.Telemetry.sample) -> s.ts_ns) series in
      check Alcotest.bool "ts_ns never decreases" true (List.sort compare ts = ts);
      let last = List.nth series (List.length series - 1) in
      check Alcotest.int "pulled continues" 3 last.pulled;
      check Alcotest.int "settled continues" 3 last.settled)

(* A PATH.quarantine of the removed two-file layout is refused by a
   load, a fresh run and a resume, with or without PATH, and nothing is
   created or changed. *)
let runlog_refuses_legacy_quarantine () =
  with_run (fun path ->
      let c1 = List.filteri (fun i _ -> i = 0) Registry.all in
      let w = Journal.create ~path:(legacy_quarantine path) () in
      Journal.append w (Octopocs.encode_quarantine (quar "1"));
      Journal.close w;
      let refused what = function
        | Ok _ -> Alcotest.failf "%s: ran beside a legacy quarantine file" what
        | Error msg ->
            check Alcotest.bool (what ^ " names the removed layout") true
              (str_contains msg (legacy_quarantine path ^ " is a removed layout")
              && str_contains msg "tail -c +11")
      in
      refused "load" (Runlog.load path);
      refused "fresh run" (Runlog.run ~journal:path ~telemetry:true (source c1));
      refused "resume" (Runlog.run ~journal:path ~telemetry:true ~resume:true (source c1));
      check Alcotest.bool "no journal created" false (Sys.file_exists path);
      check Alcotest.bool "no telemetry file created" false (Sys.file_exists (legacy_telemetry path));
      append_raw path "keep";
      refused "load beside a journal" (Runlog.load path);
      refused "resume beside a journal" (Runlog.run ~journal:path ~resume:true (source c1));
      let ic = open_in_bin path in
      check Alcotest.string "journal untouched" "keep"
        (really_input_string ic (in_channel_length ic));
      close_in ic)

let sort_dump_ordering_pinned () =
  let e label key = (label, key, ()) in
  let input = [ e "10" "a"; e "2" "z"; e "2" "a"; e "alpha" ""; e "Beta" "k"; e "1" "m" ] in
  let strip l = List.map (fun (lbl, k, ()) -> (lbl, k)) l in
  let pinned =
    [ ("1", "m"); ("2", "a"); ("2", "z"); ("10", "a"); ("Beta", "k"); ("alpha", "") ]
  in
  check Alcotest.(list (pair string string))
    "numeric labels ascend, key tiebreaks duplicates, strings sort after"
    pinned (strip (Octopocs.sort_dump input));
  (* input-order invariance: a journal holds records in settle order,
     so any permutation must sort identically *)
  check Alcotest.(list (pair string string)) "reversal sorts identically"
    pinned (strip (Octopocs.sort_dump (List.rev input)))

(* Quarantine records load in the verdicts' label order, so a dump lists
   a quarantined registry pair "10" after "2", as it lists verdicts. *)
let quarantine_label_order () =
  with_run (fun path ->
      let w = Journal.create ~path () in
      List.iter (fun l -> Journal.append w (Octopocs.encode_quarantine (quar l))) [ "2"; "10" ];
      Journal.close w;
      check Alcotest.(list string) "numeric-aware order" [ "2"; "10" ]
        (List.map (fun (q : Octopocs.quarantine) -> q.qlabel) (loaded path).quarantine))

(* ------------------------------------------------------------------ *)
(* The CLI *)

(* The CLI built beside this test binary. *)
let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/octopocs_cli.exe"

(* Run the CLI on [args]; returns its exit code, stdout and stderr. *)
let run_cli args =
  let capture () = Filename.temp_file "octocli" ".out" in
  let out = capture () and err = capture () in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let fd_out = fd out and fd_err = fd err in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin fd_out fd_err in
  Unix.close fd_out;
  Unix.close fd_err;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
  let slurp path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  (code, slurp out, slurp err)

(* gen:8:42 at worker-crash rate 0.5 quarantines 3 pairs.  Their records land in
   the journal itself and --resume skips them; a leftover PATH.quarantine
   is refused (exit 2) by a fresh run and a resume, creating nothing. *)
let cli_quarantine_in_journal () =
  with_run (fun path ->
      let run extra =
        run_cli
          ([ "verify-all"; "--corpus"; "gen:8:42"; "--chaos-site"; "worker-crash=0.5"; "--journal";
             path; "--log-level"; "error" ]
          @ extra)
      in
      ignore (run []);
      check Alcotest.bool "no quarantine file" false (Sys.file_exists (legacy_quarantine path));
      let r = loaded path in
      check Alcotest.int "settled" 5 (List.length r.verdicts);
      check Alcotest.int "quarantined in the journal" 3 (List.length r.quarantine);
      let _, out, _ = run [ "--resume" ] in
      check Alcotest.bool "resume skips the quarantined labels" true
        (str_contains out "pulled=0 " && str_contains out "quarantined-prior=3");
      Sys.rename path (legacy_quarantine path);
      List.iter
        (fun extra ->
          let code, _, err = run extra in
          check Alcotest.int "refused" 2 code;
          check Alcotest.bool "names the removed layout" true
            (str_contains err (legacy_quarantine path ^ " is a removed layout"));
          check Alcotest.bool "no journal created" false (Sys.file_exists path))
        [ []; [ "--resume" ] ])

(* The dump and the report (without --telemetry) of a journal that
   carries the run's samples equal those of the same run without them,
   and the run leaves its one journal file. *)
let cli_telemetry_changes_no_dump () =
  let dir = Filename.temp_dir "octocli" "" in
  let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) (files ());
      Sys.rmdir dir)
  @@ fun () ->
  let plain = Filename.concat dir "plain.jrnl" and sampled = Filename.concat dir "sampled.jrnl" in
  let run path extra =
    let code, _, _ =
      run_cli
        ([ "verify-all"; "--corpus"; "gen:20:42"; "--jobs"; "2"; "--journal"; path; "--log-level";
           "error" ]
        @ extra)
    in
    code
  in
  check Alcotest.int "same exit" (run plain []) (run sampled [ "--telemetry" ]);
  check Alcotest.(list string) "one file per run" [ "plain.jrnl"; "sampled.jrnl" ] (files ());
  check Alcotest.bool "samples journaled" true ((loaded sampled).samples <> []);
  check Alcotest.int "no samples without the flag" 0 (List.length (loaded plain).samples);
  let out args = let _, o, _ = run_cli args in o in
  check Alcotest.string "journal dumps identical" (out [ "journal"; plain ])
    (out [ "journal"; sampled ]);
  check Alcotest.string "reports identical" (out [ "report"; "--journal"; plain ])
    (out [ "report"; "--journal"; sampled ]);
  check Alcotest.bool "report --telemetry renders the samples" true
    (str_contains (out [ "report"; "--journal"; sampled; "--telemetry" ]) "pulled/settled/quar")

(* Sample appends draw no journal-write fault: a seeded torn-append
   schedule tears at the same record with and without --telemetry. *)
let cli_telemetry_keeps_tear_schedule () =
  with_run (fun plain ->
      with_run (fun sampled ->
          let run path extra =
            run_cli
              ([ "verify-all"; "--corpus"; "gen:20:42"; "--chaos-site"; "journal-write=0.3";
                 "--chaos-seed"; "7"; "--journal"; path; "--log-level"; "error" ]
              @ extra)
          in
          let code, _, _ = run plain [] in
          let code', _, _ = run sampled [ "--telemetry" ] in
          check Alcotest.int "same exit" code code';
          let p = loaded plain and s = loaded sampled in
          check Alcotest.bool "torn" true (p.torn && s.torn);
          check Alcotest.bool "samples before the tear" true (s.samples <> []);
          let dump path = let _, o, _ = run_cli [ "journal"; path ] in o in
          check Alcotest.string "same records survive" (dump plain) (dump sampled)))

(* A leftover PATH.telemetry of the removed layout is refused by journal,
   report, a fresh run and a resume, naming the merge command, and
   nothing is created. *)
let cli_refuses_leftover_telemetry () =
  with_run (fun path ->
      let w = Journal.create ~path:(legacy_telemetry path) () in
      Journal.close w;
      List.iter
        (fun args ->
          let code, _, err = run_cli args in
          check Alcotest.int "refused" 2 code;
          check Alcotest.bool "names the merge command" true
            (str_contains err (legacy_telemetry path ^ " is a removed layout")
            && str_contains err
                 (Printf.sprintf "tail -c +11 %s >> %s" (legacy_telemetry path) path));
          check Alcotest.bool "no journal created" false (Sys.file_exists path))
        [
          [ "journal"; path ];
          [ "report"; "--journal"; path ];
          [ "verify-all"; "--corpus"; "gen:5:42"; "--journal"; path; "--telemetry" ];
          [ "verify-all"; "--corpus"; "gen:5:42"; "--journal"; path; "--telemetry"; "--resume" ];
        ];
      let code, _, err = run_cli [ "verify-all"; "--corpus"; "gen:5:42"; "--telemetry" ] in
      check Alcotest.int "--telemetry without --journal" 2 code;
      check Alcotest.bool "says so" true (str_contains err "--telemetry requires --journal"))

(* A run SIGKILLed mid-stream leaves samples that decode as a valid
   prefix, and every settle a sample counted is journaled before it. *)
let cli_sigkill_leaves_sample_prefix () =
  with_run (fun path ->
      let env = Array.append [| "OCTOPOCS_SETTLE_DELAY=0.05" |] (Unix.environment ()) in
      let args = [ cli; "verify-all"; "--corpus"; "gen:200:42"; "--journal"; path; "--telemetry" ] in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid = Unix.create_process_env cli (Array.of_list args) env Unix.stdin null null in
      Unix.close null;
      let enough () =
        Sys.file_exists path
        && match Runlog.load path with Ok r -> List.length r.samples >= 2 | Error _ -> false
      in
      let t0 = Unix.gettimeofday () in
      while (not (enough ())) && Unix.gettimeofday () -. t0 < 20. do
        Unix.sleepf 0.05
      done;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      let r = loaded path in
      check Alcotest.int "nothing undecodable" 0 r.undecodable;
      check Alcotest.bool "samples survive the kill" true (List.length r.samples >= 2);
      let ts = List.map (fun (s : Octo_util.Telemetry.sample) -> s.ts_ns) r.samples in
      check Alcotest.bool "ts_ns never decreases" true (List.sort compare ts = ts);
      let last = List.nth r.samples (List.length r.samples - 1) in
      check Alcotest.bool "counted settles are journaled" true
        (last.settled <= List.length r.verdicts))

(* explain --journal renders a pair that has only a quarantine record:
   every registry pair quarantined at worker-crash rate 1.0. *)
let cli_explain_quarantined () =
  with_run (fun path ->
      let code, _, _ =
        run_cli
          [ "verify-all"; "--chaos-site"; "worker-crash=1.0"; "--journal"; path; "--log-level";
            "error" ]
      in
      check Alcotest.int "every pair quarantined" 3 code;
      let code, out, _ = run_cli [ "explain"; "1"; "--journal"; path ] in
      check Alcotest.int "explained" 0 code;
      check Alcotest.bool "reason, attempts and message" true
        (str_contains out "QUARANTINED (worker crashed after 1 attempt(s))"
        && str_contains out "Injected(worker-crash");
      remove_run path;
      let code, _, err = run_cli [ "explain"; "1"; "--journal"; path ] in
      check Alcotest.int "missing journal" 2 code;
      check Alcotest.bool "says so" true (str_contains err "no such journal"))

(* explain --journal looks a corpus label up verbatim, a quarantine or a
   verdict; without --journal a label that is no registry index is a
   structured error. *)
let cli_explain_corpus_label () =
  with_run (fun path ->
      ignore
        (run_cli
           [ "verify-all"; "--corpus"; "gen:200:42"; "--chaos-site"; "worker-crash=0.02";
             "--retries"; "1"; "--journal"; path; "--log-level"; "error" ]);
      let code, out, _ = run_cli [ "explain"; "g00003-tif-guard"; "--journal"; path ] in
      check Alcotest.int "quarantine explained" 0 code;
      check Alcotest.bool "quarantined pair" true
        (str_contains out "pair g00003-tif-guard"
        && str_contains out "verdict : QUARANTINED (worker crashed after 2 attempt(s))");
      let code, out, _ = run_cli [ "explain"; "g00001-gif-conflict"; "--journal"; path ] in
      check Alcotest.int "verdict explained" 0 code;
      check Alcotest.bool "its verdict" true
        (str_contains out "pair g00001-gif-conflict"
        && str_contains out "verdict : NOT TRIGGERABLE (constraints conflict");
      let code, _, err = run_cli [ "explain"; "g00003-tif-guard" ] in
      check Alcotest.int "live form wants an index" 2 code;
      check Alcotest.bool "says so" true (str_contains err "not a registry index"))

(* verify N goes through the batch's stream: pair 7's row at
   --chaos-seed 42 is a quarantine, in verify-all and in verify 7. *)
let cli_verify_matches_batch_row () =
  let code, out, _ = run_cli [ "verify"; "7"; "--chaos-seed"; "42" ] in
  check Alcotest.int "tool-crash exit" 3 code;
  check Alcotest.bool "quarantined" true (str_contains out "QUARANTINED (worker crashed: ");
  let _, out, _ = run_cli [ "verify-all"; "--chaos-seed"; "42"; "--log-level"; "error" ] in
  check Alcotest.bool "the batch row agrees" true
    (str_contains out "Pair 7   ghostscript/opj_dump_211 -> QUARANTINED (worker crashed: ")

(* An output path under a missing directory is a usage error: the CLI
   exits 2 naming the path and leaves no file behind. *)
let cli_unwritable_output args () =
  let dir = Filename.temp_dir "octocli" "" in
  let missing = Filename.concat dir "missing/out" in
  let files () = Array.to_list (Sys.readdir dir) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) (files ());
      Sys.rmdir dir)
  @@ fun () ->
  let code, _, err = run_cli (args ~dir ~missing) in
  check Alcotest.int "usage exit" 2 code;
  check Alcotest.bool "names the path" true (str_contains err ("cannot write " ^ missing));
  check Alcotest.(list string) "no file created" [] (files ())

(* A log file that existed before the run is the user's: a later output
   failure leaves it, while the trace file the run created goes. *)
let cli_unwritable_keeps_prior_log () =
  let dir = Filename.temp_dir "octocli" "" in
  let missing = Filename.concat dir "missing/out" in
  let log = Filename.concat dir "l.json" in
  let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) (files ());
      Sys.rmdir dir)
  @@ fun () ->
  Out_channel.with_open_bin log (fun oc -> output_string oc "{}\n");
  let code, _, _ =
    run_cli
      [ "verify-all"; "--corpus"; "gen:3"; "--trace"; Filename.concat dir "t.json";
        "--log-json"; log; "--journal"; missing ]
  in
  check Alcotest.int "usage exit" 2 code;
  check Alcotest.(list string) "only the prior log is left" [ "l.json" ] (files ())

(* A count flag below 1 is a usage error naming the flag, exit 2,
   before anything runs: none is clamped, and no rlimit kills a child. *)
let cli_rejects_out_of_range_run_options () =
  List.iter
    (fun (flag, args) ->
      let code, _, err =
        run_cli ([ "verify-all"; "--corpus"; "gen:4:42"; "--log-level"; "error" ] @ args)
      in
      check Alcotest.int (flag ^ " exits 2") 2 code;
      check Alcotest.bool (flag ^ " is named") true (str_contains err (flag ^ " must be >= 1")))
    [
      ("--jobs", [ "--jobs=0" ]);
      ("--jobs", [ "--jobs=-2" ]);
      ("--window", [ "--window=0" ]);
      ("--window", [ "--window=-3" ]);
      ("--rlimit-as", [ "--isolate=proc"; "--rlimit-as=-5" ]);
      ("--rlimit-cpu", [ "--isolate=proc"; "--rlimit-cpu=0" ]);
      ("--rlimit-cpu", [ "--isolate=proc"; "--rlimit-cpu=-1" ]);
    ]

let suite =
  [
    tc "journal: roundtrip with binary payloads" journal_roundtrip;
    tc "journal: missing file is an empty journal" journal_missing_file_is_empty;
    tc "journal: headerless garbage is torn, not fatal" journal_header_garbage_is_torn;
    tc "journal: torn tail dropped, prefix recovered" journal_torn_tail_dropped;
    tc "journal: short frame header dropped" journal_short_frame_header_dropped;
    tc "journal: CRC corruption ends the valid prefix" journal_crc_corruption_ends_prefix;
    tc "journal: absurd length field is torn" journal_absurd_length_is_torn;
    tc "journal: open_resume truncates tear, appends clean" journal_open_resume_truncates_and_appends;
    tc "journal: open_resume on fresh and garbage files" journal_open_resume_fresh_and_garbage;
    tc "journal: injected torn write poisons the writer" journal_injected_torn_write;
    tc "journal: append after close rejected, close idempotent" journal_append_after_close_rejected;
    tc "journal: crc32 reference check value" crc32_check_value;
    tc "codec: every verdict shape roundtrips" codec_roundtrip;
    tc "codec: malformed records decode to None" codec_rejects_malformed;
    tc "cache: content key stable, sensitive, inject-blind" content_key_stable_and_sensitive;
    tc "cache: gen:8:42 keys equal the fixture journal's" content_keys_match_fixture_journal;
    tc "batch: forced stall maps to 'worker stalled' Failure" run_all_maps_stall_to_failure;
    tc "batch: fail-fast skips the rest, settles only the first" run_all_fail_fast_skips_rest;
    tc "batch: duplicate labels keep their own reports" run_all_duplicate_labels_keep_positions;
    tc "batch: on_settle covers every pair exactly once" run_all_on_settle_covers_every_pair;
    tc "resume: merged journal equals uninterrupted run" resume_merge_equivalence;
    tc "dump: merged ordering pinned (numeric, key tiebreak)" sort_dump_ordering_pinned;
    tc "dump: quarantines load in numeric-aware label order" quarantine_label_order;
    tc "runlog: load refuses a directory" runlog_refuses_directory;
    tc "runlog: fresh run refuses each file, creates none" runlog_refuses_clobber;
    tc "runlog: same-key reuse, re-run after a config change" runlog_same_key_reuse;
    tc "runlog: resume skips prior-quarantined labels" runlog_prior_quarantine_skip;
    tc "runlog: a poisoned run writes one journal file" runlog_one_file_run;
    tc "quarantine: resume truncates a torn tail, re-runs to the same record"
      runlog_torn_quarantine_append;
    tc "quarantine: an intact unknown frame is counted, hides nothing"
      runlog_undecodable_frame_skipped;
    tc "runlog: a legacy PATH.quarantine is refused, nothing created"
      runlog_refuses_legacy_quarantine;
    tc "runlog: resume continues the samples" runlog_resume_continues_samples;
    tc "cli: quarantines live in the journal, --resume skips them" cli_quarantine_in_journal;
    tc "cli: --telemetry changes no dump or report" cli_telemetry_changes_no_dump;
    tc "cli: --telemetry keeps the tear schedule" cli_telemetry_keeps_tear_schedule;
    tc "cli: a leftover PATH.telemetry is refused" cli_refuses_leftover_telemetry;
    tc "cli: SIGKILL leaves a valid sample prefix" cli_sigkill_leaves_sample_prefix;
    tc "cli: explain --journal renders a quarantined pair" cli_explain_quarantined;
    tc "cli: explain --journal takes a corpus label" cli_explain_corpus_label;
    tc "cli: verify N matches its verify-all row under chaos" cli_verify_matches_batch_row;
    tc "cli: unwritable --trace exits 2, creates nothing"
      (cli_unwritable_output (fun ~dir:_ ~missing -> [ "verify"; "1"; "--trace"; missing ]));
    tc "cli: unwritable --log-json exits 2, creates nothing"
      (cli_unwritable_output (fun ~dir:_ ~missing ->
           [ "verify-all"; "--corpus"; "gen:3"; "--log-json"; missing ]));
    tc "cli: unwritable --journal exits 2, creates nothing"
      (cli_unwritable_output (fun ~dir:_ ~missing ->
           [ "verify-all"; "--corpus"; "gen:3"; "--journal"; missing ]));
    tc "cli: unwritable corpus directory exits 2, creates nothing"
      (cli_unwritable_output (fun ~dir:_ ~missing -> [ "corpus"; missing; "--count"; "2" ]));
    tc "cli: unwritable --journal removes the --trace and --log-json files it created"
      (cli_unwritable_output (fun ~dir ~missing ->
           [ "verify-all"; "--corpus"; "gen:3"; "--trace"; Filename.concat dir "t.json";
             "--log-json"; Filename.concat dir "l.json"; "--journal"; missing ]));
    tc "cli: unwritable --journal leaves a --log-json file that existed"
      cli_unwritable_keeps_prior_log;
    tc "cli: unwritable --journal --telemetry"
      (cli_unwritable_output (fun ~dir:_ ~missing ->
           [ "verify-all"; "--corpus"; "gen:3"; "--journal"; missing; "--telemetry" ]));
    tc "cli: out-of-range run options exit 2 naming the flag"
      cli_rejects_out_of_range_run_options;
  ]
