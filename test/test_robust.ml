(* Tests for the robustness layer: monotonic deadlines, the escalated
   retry, crash-isolated batch verification and deterministic fault
   injection. *)

module Deadline = Octo_util.Deadline
module Faultinject = Octo_util.Faultinject
module Registry = Octo_targets.Registry
module Directed = Octo_symex.Directed

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Deadlines *)

let deadline_none_never_expires () =
  check Alcotest.bool "none is none" true (Deadline.is_none Deadline.none);
  check Alcotest.bool "none not expired" false (Deadline.expired Deadline.none);
  Deadline.check Deadline.none ~what:"anything"

let deadline_zero_expires_immediately () =
  let d = Deadline.after ~seconds:0.0 in
  check Alcotest.bool "expired" true (Deadline.expired d);
  match Deadline.check d ~what:"phase" with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Deadline.Deadline_exceeded what -> check Alcotest.string "what" "phase" what

let deadline_future_not_expired () =
  let d = Deadline.after ~seconds:3600.0 in
  check Alcotest.bool "not expired" false (Deadline.expired d);
  check Alcotest.bool "remaining positive" true (Deadline.remaining_s d > 3500.0);
  Deadline.check d ~what:"fine"

let deadline_negative_rejected () =
  match Deadline.after ~seconds:(-1.0) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Budgets past the int64 nanosecond range (~292 years) saturate to "no
   deadline" instead of wrapping into an already-expired one. *)
let deadline_infinite_never_expires () =
  let d = Deadline.after ~seconds:infinity in
  check Alcotest.bool "not expired" false (Deadline.expired d);
  check Alcotest.bool "remaining positive" true (Deadline.remaining_s d > 0.0);
  check Alcotest.int64 "ns_after saturates" Int64.max_int (Deadline.ns_after ~seconds:infinity)

let deadline_huge_budget_holds () =
  let d = Deadline.after ~seconds:1e10 in
  check Alcotest.bool "not expired" false (Deadline.expired d);
  check Alcotest.bool "remaining positive" true (Deadline.remaining_s d > 0.0);
  Deadline.check d ~what:"fine";
  check Alcotest.bool "ns_after in the future" true
    (Int64.compare (Deadline.ns_after ~seconds:1e10) (Deadline.monotonic_ns ()) > 0)

let deadline_nan_rejected () =
  (match Deadline.after ~seconds:Float.nan with
  | _ -> Alcotest.fail "after: expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Deadline.ns_after ~seconds:Float.nan with
  | _ -> Alcotest.fail "ns_after: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let deadline_clock_is_monotonic () =
  let a = Deadline.monotonic_ns () in
  let b = Deadline.monotonic_ns () in
  check Alcotest.bool "non-decreasing" true (Int64.compare b a >= 0)

let pipeline_deadline_zero_is_failure () =
  (* An already-expired deadline must surface as a structured Failure, not
     as an escaped exception, and must not be "rescued" by the escalated
     retry (there is no time left to retry with). *)
  let c = Registry.find 1 in
  let config = { Octopocs.default_config with deadline_s = Some 0.0 } in
  let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
  (match r.verdict with
  | Octopocs.Failure msg ->
      check Alcotest.bool "deadline message" true
        (String.length msg >= 17 && String.sub msg 0 17 = "deadline exceeded")
  | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v));
  check Alcotest.(list string) "no rungs climbed" [] r.degradations

(* ------------------------------------------------------------------ *)
(* Escalated retry *)

(* gif2png (pair 9) needs exactly 32 loop iterations, hence ~33 loop-retry
   runs: max_runs = 8 exhausts the budget, and the escalated retry
   (max_runs x8 = 64) rescues it. *)
let starved_config =
  {
    Octopocs.default_config with
    symex = { Directed.default_config with max_runs = 8 };
  }

let with_provenance f =
  let was_on = Octopocs.Provenance.is_on () in
  if not was_on then Octopocs.Provenance.enable ();
  Fun.protect ~finally:(fun () -> if not was_on then Octopocs.Provenance.disable ()) f

(* The [Rung] events of a report collected with provenance on. *)
let rungs_of (r : Octopocs.report) =
  match r.provenance with
  | None -> Alcotest.fail "no provenance collected"
  | Some p ->
      List.filter_map
        (function
          | Octopocs.Provenance.Rung { rung; failure } -> Some (rung, failure) | _ -> None)
        p.events

let failure_msg = function
  | Octopocs.Failure m -> m
  | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v)

let ladder_off_reports_budget_failure () =
  (* max_runs = 1 starves the escalated retry too (x8 = 8 runs of ~33):
     the budget failure is reported as is. *)
  let c = Registry.find 9 in
  let config =
    { Octopocs.default_config with symex = { Directed.default_config with max_runs = 1 } }
  in
  let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
  check Alcotest.string "budget failure" "symbolic execution budget exhausted: loop retries"
    (failure_msg r.verdict);
  check Alcotest.(list string) "the retry tried" [ "symex-escalate" ] r.degradations

let ladder_rescues_budget_exhaustion () =
  let c = Registry.find 9 in
  let r = Octopocs.run ~config:starved_config ~s:c.s ~t:c.t ~poc:c.poc () in
  (match r.verdict with
  | Octopocs.Triggered { ptype = Octopocs.Type_II; _ } -> ()
  | v -> Alcotest.failf "expected Type-II, got %s" (Octopocs.verdict_class v));
  check Alcotest.(list string) "one rung climbed" [ "symex-escalate" ] r.degradations

let ladder_total_failure_preserves_original () =
  (* max_runs = 4 with max_steps = 70: the first attempt runs out of loop
     retries, and the escalated retry (32 runs of 280 steps) runs out of
     steps instead.  The report must carry the first attempt's failure
     verbatim, with the retry recorded. *)
  let c = Registry.find 9 in
  let config =
    {
      Octopocs.default_config with
      symex = { Directed.default_config with max_runs = 4; max_steps = 70 };
    }
  in
  let run config = with_provenance (fun () -> Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc ()) in
  let r = run config in
  check Alcotest.string "original failure string verbatim"
    "symbolic execution budget exhausted: loop retries" (failure_msg r.verdict);
  check Alcotest.(list string) "the rung tried" [ "symex-escalate" ] r.degradations;
  (* The retry's own failure is the first-attempt failure of a run under
     the escalated config. *)
  match rungs_of (run (Octopocs.escalate config)) with
  | [ (_, retry_failure) ] ->
      check Alcotest.string "the retry failed otherwise"
        "symbolic execution budget exhausted: symbolic steps" retry_failure
  | _ -> Alcotest.fail "expected one retry"

let ladder_one_rung_escalates () =
  let c = Octopocs.default_config in
  let e = Octopocs.escalate c in
  check Alcotest.int "theta x4" (c.symex.theta * 4) e.symex.theta;
  check Alcotest.int "max_runs x8" (c.symex.max_runs * 8) e.symex.max_runs;
  check Alcotest.int "max_steps x4" (c.symex.max_steps * 4) e.symex.max_steps;
  check Alcotest.bool "every other field kept" true ({ e with symex = c.symex } = c)

let ladder_expired_before_first_rung () =
  (* A rescuable first failure under an already-expired deadline: the
     retry shares that deadline, so it is never attempted (no [Rung]
     event), and the first failure stands with nothing recorded. *)
  let c = Registry.find 9 in
  let config = { starved_config with deadline_s = Some 0.0 } in
  let r = with_provenance (fun () -> Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc ()) in
  check Alcotest.bool "deadline failure" true
    (String.starts_with ~prefix:"deadline exceeded" (failure_msg r.verdict));
  check Alcotest.(list (pair string string)) "no rung attempted" [] (rungs_of r);
  check Alcotest.(list string) "no rungs recorded" [] r.degradations

let ladder_rescue_mid_climb_keeps_clock () =
  (* A healthy deadline: the retry runs on it and rescues the pair; its
     [Rung] event names the first attempt's failure. *)
  let c = Registry.find 9 in
  let config = { starved_config with deadline_s = Some 60.0 } in
  let r = with_provenance (fun () -> Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc ()) in
  (match r.verdict with
  | Octopocs.Triggered _ -> ()
  | v -> Alcotest.failf "expected Triggered, got %s" (Octopocs.verdict_class v));
  check Alcotest.(list (pair string string)) "the rung and its trigger"
    [ ("symex-escalate", "symbolic execution budget exhausted: loop retries") ]
    (rungs_of r);
  check Alcotest.(list string) "rescuing rung recorded" [ "symex-escalate" ] r.degradations

let pipeline_tiny_deadline_expires_mid_run () =
  (* End-to-end: a not-quite-zero deadline expires at the first cooperative
     check inside the pipeline; run must contain it as a structured Failure
     with no escalated retry (the expired clock is shared, so the retry is
     skipped). *)
  let c = Registry.find 1 in
  let config = { Octopocs.default_config with deadline_s = Some 1e-9 } in
  let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
  (match r.verdict with
  | Octopocs.Failure msg ->
      check Alcotest.bool "deadline message" true
        (String.length msg >= 17 && String.sub msg 0 17 = "deadline exceeded")
  | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v));
  check Alcotest.(list string) "no rungs climbed" [] r.degradations

let rescuable_classification () =
  List.iter
    (fun m -> check Alcotest.bool m true (Octopocs.rescuable_failure m))
    [
      "symbolic execution budget exhausted: loop retries";
      "deadline exceeded: solver model search";
      "constraint solver budget exhausted";
    ];
  List.iter
    (fun m -> check Alcotest.bool m false (Octopocs.rescuable_failure m))
    [
      "CFG recovery failed: unresolvable indirect call at main@23";
      "poc does not crash S";
      "generated poc' did not reproduce the crash in T";
      "worker crashed: Stack_overflow";
    ]

(* ------------------------------------------------------------------ *)
(* Batch crash isolation (the acceptance scenario) *)

let run_all_isolates_crash_and_deadline () =
  (* 15 jobs: pair 3 gets an already-expired deadline, pair 5 a forced
     synthetic worker crash.  The batch must return all 15 labelled reports
     in order — the two sabotaged pairs as Failure, the rest unchanged. *)
  let batch =
    List.map
      (fun (c : Registry.case) ->
        let config =
          if c.idx = 3 then Some { Octopocs.default_config with deadline_s = Some 0.0 }
          else if c.idx = 5 then
            Some
              {
                Octopocs.default_config with
                inject =
                  Faultinject.create ~rate:0.0
                    ~site_rates:[ (Faultinject.Worker_crash, 1.0) ]
                    ~seed:7 ();
              }
          else None
        in
        Octopocs.job ?config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ())
      Registry.all
  in
  let results = Octopocs.run_all ~jobs:2 batch in
  check Alcotest.int "all reports returned" (List.length Registry.all) (List.length results);
  List.iter2
    (fun (c : Registry.case) (label, (r : Octopocs.report)) ->
      check Alcotest.string "label order" (string_of_int c.idx) label;
      let cls = Octopocs.verdict_class r.verdict in
      match c.idx with
      | 3 -> (
          match r.verdict with
          | Octopocs.Failure msg ->
              check Alcotest.bool "pair 3 deadline failure" true
                (String.length msg >= 17 && String.sub msg 0 17 = "deadline exceeded")
          | v -> Alcotest.failf "pair 3: expected Failure, got %s" (Octopocs.verdict_class v))
      | 5 -> (
          match r.verdict with
          | Octopocs.Failure msg ->
              check Alcotest.bool "pair 5 worker-crash failure" true
                (String.length msg >= 14 && String.sub msg 0 14 = "worker crashed")
          | v -> Alcotest.failf "pair 5: expected Failure, got %s" (Octopocs.verdict_class v))
      | _ ->
          check Alcotest.string
            (Printf.sprintf "pair %d unchanged" c.idx)
            (Registry.expected_to_string c.expected)
            cls)
    Registry.all results

let run_all_retry_rescues_transient_crash () =
  (* Worker_crash at rate 0.5: the first draw of seed 11's stream fires,
     the retry's second draw does not — so retries:0 records a crash and
     retries:1 rescues the job.  (The pair of draws is a deterministic
     property of the seed; the assertion below locks it in.) *)
  let c = Registry.find 1 in
  let mk () =
    {
      Octopocs.default_config with
      inject =
        Faultinject.create ~rate:0.0
          ~site_rates:[ (Faultinject.Worker_crash, 0.5) ]
          ~seed:11 ();
    }
  in
  (let i = Faultinject.create ~rate:0.0 ~site_rates:[ (Faultinject.Worker_crash, 0.5) ] ~seed:11 () in
   let first = Faultinject.fire i Faultinject.Worker_crash in
   let second = Faultinject.fire i Faultinject.Worker_crash in
   check Alcotest.(pair bool bool) "seed 11 draw pattern" (true, false) (first, second));
  let job config = [ Octopocs.job ~config ~label:"1" ~s:c.s ~t:c.t ~poc:c.poc () ] in
  (match Octopocs.run_all ~retries:0 (job (mk ())) with
  | [ (_, { verdict = Octopocs.Failure _; _ }) ] -> ()
  | _ -> Alcotest.fail "expected worker-crash Failure without retries");
  match Octopocs.run_all ~retries:1 (job (mk ())) with
  | [ (_, r) ] ->
      check Alcotest.string "rescued by retry" (Registry.expected_to_string c.expected)
        (Octopocs.verdict_class r.verdict)
  | _ -> Alcotest.fail "expected one report"

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let injection_deterministic () =
  let draws seed =
    let t = Faultinject.create ~rate:0.5 ~seed () in
    List.concat_map
      (fun site -> List.init 64 (fun _ -> Faultinject.fire t site))
      Faultinject.all_sites
  in
  check Alcotest.(list bool) "same seed, same schedule" (draws 42) (draws 42);
  check Alcotest.bool "different seed, different schedule" false (draws 42 = draws 43)

let injection_sites_independent () =
  (* Draining one site's stream must not perturb another's. *)
  let a = Faultinject.create ~rate:0.5 ~seed:5 () in
  let b = Faultinject.create ~rate:0.5 ~seed:5 () in
  for _ = 1 to 100 do
    ignore (Faultinject.fire a Faultinject.Vm_syscall)
  done;
  let seq t = List.init 32 (fun _ -> Faultinject.fire t Faultinject.Solver_budget) in
  check Alcotest.(list bool) "solver stream unperturbed" (seq b) (seq a)

let injection_off_is_silent () =
  check Alcotest.bool "Off never fires" false (Faultinject.fire Faultinject.none Faultinject.Vm_syscall);
  Faultinject.maybe_raise Faultinject.none Faultinject.Worker_crash ~what:"x";
  let zero = Faultinject.create ~rate:0.0 ~seed:1 () in
  for _ = 1 to 100 do
    check Alcotest.bool "rate 0 never fires" false (Faultinject.fire zero Faultinject.Deadline_expiry)
  done

let forced_solver_starvation_is_rescuable () =
  (* Solver_budget at rate 1.0 starves every attempt including the
     escalated retry: the original failure must come back verbatim with the
     retry recorded. *)
  let c = Registry.find 1 in
  let config =
    {
      Octopocs.default_config with
      inject =
        Faultinject.create ~rate:0.0 ~site_rates:[ (Faultinject.Solver_budget, 1.0) ] ~seed:3 ();
    }
  in
  let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
  (match r.verdict with
  | Octopocs.Failure msg ->
      check Alcotest.string "starved solver" "constraint solver budget exhausted" msg
  | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v));
  check Alcotest.(list string) "the rung tried" [ "symex-escalate" ] r.degradations

let injected_deadline_contained () =
  (* Deadline_expiry at rate 1.0 fires at the first phase boundary; run
     must contain it as a Failure (the escalated retry hits the same
     injected expiry). *)
  let c = Registry.find 1 in
  let config =
    {
      Octopocs.default_config with
      inject =
        Faultinject.create ~rate:0.0 ~site_rates:[ (Faultinject.Deadline_expiry, 1.0) ] ~seed:3 ();
    }
  in
  match (Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc ()).verdict with
  | Octopocs.Failure msg ->
      check Alcotest.bool "deadline message" true
        (String.length msg >= 17 && String.sub msg 0 17 = "deadline exceeded")
  | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v)

let chaos_schedule_deterministic () =
  (* A miniature of bench's chaos mode: one seeded 5-pair schedule, run
     twice on fresh injectors, must produce identical labelled verdicts.
     The seed is env-overridable so CI can sweep it. *)
  let seed =
    match Sys.getenv_opt "OCTOPOCS_CHAOS_SEED" with
    | Some s -> ( try int_of_string s with _ -> 42)
    | None -> 42
  in
  let cases = List.filteri (fun i _ -> i < 5) Registry.all in
  let snapshot () =
    let batch =
      List.map
        (fun (c : Registry.case) ->
          let inject =
            Faultinject.create ~rate:0.0
              ~site_rates:
                [
                  (Faultinject.Solver_budget, 0.05);
                  (Faultinject.Worker_crash, 0.05);
                  (Faultinject.Deadline_expiry, 0.02);
                ]
              ~seed:(seed lxor (c.idx * 0x9E3779B9)) ()
          in
          let config = { Octopocs.default_config with inject } in
          Octopocs.job ~config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ())
        cases
    in
    Octopocs.run_all ~jobs:2 ~retries:1 batch
    |> List.map (fun (label, (r : Octopocs.report)) ->
           (label, Octopocs.verdict_class r.verdict, r.degradations))
  in
  let a = snapshot () in
  check Alcotest.int "all reports" 5 (List.length a);
  check Alcotest.bool "replay identical" true (a = snapshot ())

let qcheck_tests =
  [
    QCheck.Test.make ~name:"fault schedules are a pure function of the seed" ~count:50
      QCheck.(small_int)
      (fun seed ->
        let draws () =
          let t = Faultinject.create ~rate:0.5 ~seed () in
          List.concat_map
            (fun site -> List.init 20 (fun _ -> Faultinject.fire t site))
            Faultinject.all_sites
        in
        draws () = draws ());
  ]

let suite =
  [
    tc "deadline: none never expires" deadline_none_never_expires;
    tc "deadline: zero budget expires immediately" deadline_zero_expires_immediately;
    tc "deadline: future budget holds" deadline_future_not_expired;
    tc "deadline: negative budget rejected" deadline_negative_rejected;
    tc "deadline: infinite budget never expires" deadline_infinite_never_expires;
    tc "deadline: 1e10 s budget holds" deadline_huge_budget_holds;
    tc "deadline: NaN budget rejected" deadline_nan_rejected;
    tc "deadline: clock is monotonic" deadline_clock_is_monotonic;
    tc "pipeline: expired deadline is a structured Failure" pipeline_deadline_zero_is_failure;
    tc "ladder: off reports budget failure" ladder_off_reports_budget_failure;
    tc "ladder: rescues budget exhaustion" ladder_rescues_budget_exhaustion;
    tc "ladder: total failure preserves original verbatim" ladder_total_failure_preserves_original;
    tc "ladder: one rung escalates every budget" ladder_one_rung_escalates;
    tc "ladder: expired clock means zero attempts" ladder_expired_before_first_rung;
    tc "ladder: mid-climb rescue records its rung" ladder_rescue_mid_climb_keeps_clock;
    tc "pipeline: tiny deadline expires mid-run, structured" pipeline_tiny_deadline_expires_mid_run;
    tc "ladder: rescuable failure classification" rescuable_classification;
    tc "batch: crash + deadline isolated, 15 labelled reports" run_all_isolates_crash_and_deadline;
    tc "batch: retry rescues a transient worker crash" run_all_retry_rescues_transient_crash;
    tc "inject: deterministic per seed" injection_deterministic;
    tc "inject: per-site streams independent" injection_sites_independent;
    tc "inject: off and rate-0 are silent" injection_off_is_silent;
    tc "inject: forced solver starvation, ladder exhausted" forced_solver_starvation_is_rescuable;
    tc "inject: injected deadline contained" injected_deadline_contained;
    tc "chaos: seeded schedule replays identically" chaos_schedule_deterministic;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
