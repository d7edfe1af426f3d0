(* Tests for the fork-based process sandbox: the pipe-protocol frame
   codec, every death classification the parent can produce (clean
   verdict, transported exception, SIGSEGV, OOM-kill, RLIMIT_AS,
   RLIMIT_CPU, parent deadline-kill), and the process-isolated run
   paths end to end — Domain/process verdict identity, seeded
   child-death quarantine, the OOM-pair-to-quarantine ladder, and the
   fixed in-flight window.

   ORDERING CONSTRAINT: this suite MUST run before any suite that
   spawns a domain.  OCaml 5.1 refuses [Unix.fork] permanently once a
   domain has ever been created in the process (the restriction
   latches; joining does not lift it), and every pool — even a
   single-worker one — spawns domains.  The runner registers this
   suite first for that reason; the Domain-mode halves of the
   comparison tests below use [jobs:1], which stays on the serial
   no-domain path. *)

module Sandbox = Octo_util.Sandbox
module Telemetry = Octo_util.Telemetry
module Faultinject = Octo_util.Faultinject
module Registry = Octo_targets.Registry

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Pipe protocol framing *)

let binary_payload = "\x00\x01|\xff\n child \x00 bytes \r\n" ^ String.make 200 '\xee'

let frame_roundtrip () =
  List.iter
    (fun p ->
      match Sandbox.parse_frame (Sandbox.frame p) with
      | Ok p' -> check Alcotest.string "payload" p p'
      | Error why -> Alcotest.failf "valid frame rejected: %s" why)
    [ ""; "verdict"; binary_payload ]

let frame_torn_cases () =
  let f = Sandbox.frame "hello sandbox" in
  let expect_error what data =
    match Sandbox.parse_frame data with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  expect_error "empty pipe" "";
  expect_error "short header" (String.sub f 0 5);
  expect_error "truncated payload" (String.sub f 0 (String.length f - 3));
  expect_error "trailing bytes" (f ^ "x");
  expect_error "absurd length" "\xff\xff\xff\x7f\x00\x00\x00\x00";
  let corrupt = Bytes.of_string f in
  Bytes.set corrupt 10 (Char.chr (Char.code (Bytes.get corrupt 10) lxor 0xff));
  expect_error "flipped payload byte" (Bytes.to_string corrupt)

(* ------------------------------------------------------------------ *)
(* Death classification, one child per class *)

let child_clean () =
  match Sandbox.run_child (fun () -> binary_payload) with
  | Sandbox.Clean p, _ -> check Alcotest.string "payload crosses the pipe" binary_payload p
  | d, _ -> Alcotest.failf "wanted Clean, got %a" Sandbox.pp_death d

let child_exn () =
  match Sandbox.run_child (fun () -> failwith "boom in the child") with
  | Sandbox.Child_exn msg, _ ->
      check Alcotest.bool "exception text transported" true
        (contains ~needle:"boom in the child" msg)
  | d, _ -> Alcotest.failf "wanted Child_exn, got %a" Sandbox.pp_death d

let child_segv () =
  match Sandbox.run_child ~die:`Segv (fun () -> "unreached") with
  | Sandbox.Segv, _ -> ()
  | d, _ -> Alcotest.failf "wanted Segv, got %a" Sandbox.pp_death d

let child_oom_kill () =
  match Sandbox.run_child ~die:`Oom_kill (fun () -> "unreached") with
  | Sandbox.Oom why, _ ->
      check Alcotest.bool "attributed to the OOM killer" true
        (contains ~needle:"SIGKILL" why)
  | d, _ -> Alcotest.failf "wanted Oom, got %a" Sandbox.pp_death d

(* Allocate way past RLIMIT_AS in MiB-sized steps: the child's runtime
   raises [Out_of_memory], which the sandbox converts to its reserved
   exit code without allocating. *)
let allocate_mb mb () =
  ignore (Sys.opaque_identity (Array.init mb (fun _ -> Bytes.make (1 lsl 20) 'x')));
  "survived"

let child_rlimit_as () =
  let limits = { Sandbox.as_mb = Some 512; cpu_s = None } in
  match Sandbox.run_child ~limits (allocate_mb 2048) with
  | Sandbox.Oom why, _ ->
      check Alcotest.bool "names RLIMIT_AS" true
        (contains ~needle:"RLIMIT_AS" why)
  | d, _ -> Alcotest.failf "wanted Oom (RLIMIT_AS), got %a" Sandbox.pp_death d

let child_deadline_kill () =
  match
    Sandbox.run_child ~kill_after_s:0.2 (fun () ->
        Unix.sleepf 30.0;
        "unreached")
  with
  | Sandbox.Deadline_kill, _ -> ()
  | d, _ -> Alcotest.failf "wanted Deadline_kill, got %a" Sandbox.pp_death d

let child_rlimit_cpu () =
  let limits = { Sandbox.as_mb = None; cpu_s = Some 1 } in
  (* Pure CPU spin; the wall-clock kill is a distant backstop so a
     miscounted RLIMIT_CPU cannot wedge the test. *)
  match
    Sandbox.run_child ~limits ~kill_after_s:30.0 (fun () ->
        let x = ref 0 in
        while true do
          x := !x + 1;
          if !x = max_int then x := 0
        done;
        "unreached")
  with
  | Sandbox.Cpu, _ -> ()
  | d, _ -> Alcotest.failf "wanted Cpu (SIGXCPU), got %a" Sandbox.pp_death d

(* ------------------------------------------------------------------ *)
(* Process-isolated run paths, end to end *)

let small_registry n = List.filteri (fun i _ -> i < n) Registry.all

let clean_job (c : Registry.case) =
  let config = { Octopocs.default_config with deadline_s = Some 30.0 } in
  Octopocs.job ~config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ()

let verdict_table results =
  List.map
    (fun (label, (r : Octopocs.report)) -> (label, r.Octopocs.verdict, r.degradations))
    results
  |> List.sort compare

let proc_matches_domain () =
  let cases = small_registry 3 in
  (* Process half FIRST (fork before any conceivable domain), Domain
     half with jobs:1 — the serial path spawns no domain anywhere. *)
  let prc =
    Octopocs.run_all ~jobs:2 ~isolate:Octopocs.Processes (List.map clean_job cases)
  in
  let dom = Octopocs.run_all ~jobs:1 (List.map clean_job cases) in
  check Alcotest.int "all pairs reported" (List.length cases) (List.length prc);
  check Alcotest.bool "verdict tables identical" true (verdict_table prc = verdict_table dom)

let segv_job (c : Registry.case) =
  let inject =
    Faultinject.create ~rate:0.0
      ~site_rates:[ (Faultinject.Child_segv, 1.0) ]
      ~seed:c.idx ()
  in
  let config = { Octopocs.default_config with inject; deadline_s = Some 30.0 } in
  Octopocs.job ~config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ()

let stream_of jobs =
  let pending = ref jobs in
  fun () -> match !pending with [] -> None | j :: rest -> pending := rest; Some j

let seeded_segv_quarantines () =
  let cases = small_registry 3 in
  let quars = ref [] in
  let settled = ref 0 in
  let st =
    Octopocs.run_stream ~jobs:2 ~retries:1 ~isolate:Octopocs.Processes
      ~on_settle:(fun _ _ -> incr settled)
      ~on_quarantine:(fun q -> quars := q :: !quars)
      (stream_of (List.map segv_job cases))
  in
  check Alcotest.int "every child died twice -> all quarantined" (List.length cases)
    st.Octopocs.st_quarantined;
  check Alcotest.int "nothing settled" 0 !settled;
  List.iter
    (fun (q : Octopocs.quarantine) ->
      check Alcotest.string "reason" "worker crashed" q.Octopocs.qreason;
      check Alcotest.bool "message names the signal" true
        (contains ~needle:"SIGSEGV" q.Octopocs.qmessage);
      check Alcotest.int "retry ladder consumed" 2 q.Octopocs.qattempts)
    !quars

let seeded_segv_settles_as_failure_without_quarantine () =
  let cases = small_registry 2 in
  let reports = ref [] in
  let st =
    Octopocs.run_stream ~jobs:1 ~retries:0 ~isolate:Octopocs.Processes
      ~on_settle:(fun j r -> reports := (Octopocs.job_label j, r) :: !reports)
      (stream_of (List.map segv_job cases))
  in
  check Alcotest.int "all settled" (List.length cases) st.Octopocs.st_settled;
  List.iter
    (fun ((_, r) : string * Octopocs.report) ->
      match r.Octopocs.verdict with
      | Octopocs.Failure msg ->
          check Alcotest.bool "failure names the segfault" true
            (contains ~needle:"SIGSEGV" msg)
      | _ -> Alcotest.fail "child segfault settled as a non-Failure verdict")
    !reports

(* The ISSUE's acceptance scenario: one pair deterministically OOMs
   under RLIMIT_AS, is classified as an OOM failure, retried, and lands
   in quarantine with reason "oom" — while its batch-mates complete. *)
let oom_pair_quarantined_others_complete () =
  let cases = small_registry 3 in
  let oom_label = string_of_int (List.hd cases).Registry.idx in
  let limits = { Sandbox.as_mb = Some 512; cpu_s = None } in
  let pre_run j =
    if Octopocs.job_label j = oom_label then ignore (allocate_mb 2048 ())
  in
  let quars = ref [] in
  let settled = ref [] in
  let st =
    Octopocs.run_stream ~jobs:2 ~retries:1 ~isolate:Octopocs.Processes ~limits ~pre_run
      ~on_settle:(fun j _ -> settled := Octopocs.job_label j :: !settled)
      ~on_quarantine:(fun q -> quars := q :: !quars)
      (stream_of (List.map clean_job cases))
  in
  check Alcotest.int "exactly the OOM pair quarantined" 1 st.Octopocs.st_quarantined;
  (match !quars with
  | [ q ] ->
      check Alcotest.string "label" oom_label q.Octopocs.qlabel;
      check Alcotest.string "reason" "oom" q.Octopocs.qreason;
      check Alcotest.int "after the full retry ladder" 2 q.Octopocs.qattempts;
      check Alcotest.bool "message says out of memory" true
        (contains ~needle:"out of memory" q.Octopocs.qmessage)
  | _ -> Alcotest.fail "expected exactly one quarantine record");
  check Alcotest.int "batch-mates all settled" (List.length cases - 1)
    (List.length !settled);
  check Alcotest.bool "the OOM pair never settled" false (List.mem oom_label !settled)

(* The driver draws worker faults before it starts an attempt, in every
   isolation mode, so a retry advances the job's worker-crash stream
   whether the attempt runs inline or in a forked child: over identical
   per-job injectors both modes rescue and quarantine the same pairs.
   (A child drawing on its own copy of the injector would replay attempt
   0's fault on every retry and quarantine far more.) *)
let proc_retries_redraw_worker_faults () =
  let c = List.hd Registry.all in
  let labels = List.init 40 (Printf.sprintf "w%02d") in
  let jobs () =
    List.map
      (fun label ->
        let inject =
          Faultinject.create ~rate:0.0
            ~site_rates:[ (Faultinject.Worker_crash, 0.5) ]
            ~seed:(Faultinject.seed_for ~seed:1 label) ()
        in
        let config = { Octopocs.default_config with inject; deadline_s = Some 30.0 } in
        Octopocs.job ~config ~label ~s:c.s ~t:c.t ~poc:c.poc ())
      labels
  in
  let run isolate =
    let settled = ref [] and quars = ref [] in
    let (_ : Octopocs.stream_stats) =
      Octopocs.run_stream ~jobs:1 ~retries:3 ~isolate
        ~on_settle:(fun j _ -> settled := Octopocs.job_label j :: !settled)
        ~on_quarantine:(fun (q : Octopocs.quarantine) ->
          quars := (q.qlabel, q.qreason, q.qattempts) :: !quars)
        (stream_of (jobs ()))
    in
    (List.sort compare !settled, List.sort compare !quars)
  in
  (* Process half first: fork before any domain. *)
  let prc_settled, prc_quars = run Octopocs.Processes in
  let dom_settled, dom_quars = run Octopocs.Domains in
  check Alcotest.bool "the schedule quarantines something" true (dom_quars <> []);
  check Alcotest.(list string) "same settled labels" dom_settled prc_settled;
  check
    Alcotest.(list (triple string string int))
    "same quarantines" dom_quars prc_quars

(* The window is the only admission bound: six jobs at window 2 never
   hold more than two children.  Telemetry's child RSS is the running
   maximum of the reaped children's maxrss, so it never falls and the
   final sample holds the largest value. *)
let proc_window_bounds_in_flight () =
  let c = List.hd Registry.all in
  let jobs =
    List.init 6 (fun i ->
        let config = { Octopocs.default_config with deadline_s = Some 30.0 } in
        Octopocs.job ~config ~label:(Printf.sprintf "w%d" i) ~s:c.s ~t:c.t ~poc:c.poc ())
  in
  let frames = ref [] in
  Telemetry.enable ~interval_ns:1 (fun s -> frames := Telemetry.encode_sample s :: !frames);
  let st =
    Fun.protect ~finally:Telemetry.disable (fun () ->
        Octopocs.run_stream ~jobs:2 ~window:2 ~isolate:Octopocs.Processes (stream_of jobs))
  in
  check Alcotest.int "all pairs settled" 6 st.Octopocs.st_settled;
  check Alcotest.bool "peak in-flight within the window" true (st.Octopocs.st_peak_in_flight <= 2);
  let rss =
    List.rev_map
      (fun f ->
        match Telemetry.decode_sample f with
        | Some s -> s.Telemetry.child_rss_kb
        | None -> Alcotest.fail "undecodable sample")
      !frames
  in
  let last = List.nth rss (List.length rss - 1) in
  check Alcotest.bool "child RSS measured" true (last > 0);
  check Alcotest.int "last sample holds the maximum" (List.fold_left max 0 rss) last

let suite =
  [
    tc "frame: roundtrip with binary payloads" frame_roundtrip;
    tc "frame: every torn shape maps to Error" frame_torn_cases;
    tc "child: clean payload crosses the pipe" child_clean;
    tc "child: exception transported and classified" child_exn;
    tc "child: SIGSEGV classified" child_segv;
    tc "child: OOM-kill classified" child_oom_kill;
    tc "child: RLIMIT_AS converts to the OOM exit code" child_rlimit_as;
    tc "child: parent deadline-kill classified" child_deadline_kill;
    tc "child: RLIMIT_CPU (SIGXCPU) classified" child_rlimit_cpu;
    tc "proc: batch verdicts identical to domain mode" proc_matches_domain;
    tc "proc: seeded segv schedule exhausts into quarantine" seeded_segv_quarantines;
    tc "proc: child deaths settle as failures sans quarantine"
      seeded_segv_settles_as_failure_without_quarantine;
    tc "proc: OOM pair quarantined with reason oom, mates complete"
      oom_pair_quarantined_others_complete;
    tc "proc: retries re-draw worker faults like domain mode" proc_retries_redraw_worker_faults;
    tc "proc: in-flight stays within the window; child RSS is a running max"
      proc_window_bounds_in_flight;
  ]
