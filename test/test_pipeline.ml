(* End-to-end tests for the OCTOPOCS pipeline: Table II verdicts, poc'
   properties, the Table III ablation, and report plumbing. *)

open Octo_vm
module Registry = Octo_targets.Registry
module Taint = Octo_taint.Taint

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let run_case (c : Registry.case) = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc ()

let all_verdicts_match_table2 () =
  List.iter
    (fun (c : Registry.case) ->
      let r = run_case c in
      check Alcotest.string
        (Printf.sprintf "pair %d" c.idx)
        (Registry.expected_to_string c.expected)
        (Octopocs.verdict_class r.verdict))
    Registry.all

let poc'_crashes_t_in_ell () =
  List.iter
    (fun (c : Registry.case) ->
      let r = run_case c in
      match r.verdict with
      | Octopocs.Triggered { poc'; _ } ->
          let t_run = Interp.run c.t ~input:poc' in
          check Alcotest.bool
            (Printf.sprintf "pair %d poc' reproduces" c.idx)
            true
            (Interp.crash_in t_run ~funcs:r.ell)
      | _ -> ())
    Registry.all

let poc'_often_smaller_than_poc () =
  (* The paper notes Type-I poc' files are often more optimized than poc;
     at minimum they never blow up. *)
  List.iter
    (fun (c : Registry.case) ->
      let r = run_case c in
      match r.verdict with
      | Octopocs.Triggered { poc'; _ } ->
          check Alcotest.bool
            (Printf.sprintf "pair %d poc' bounded" c.idx)
            true
            (String.length poc' <= String.length c.poc + 160)
      | _ -> ())
    Registry.all

let type1_poc_equivalence () =
  (* For Type-I pairs the original poc itself crashes T; for Type-II it
     must not (that is what distinguishes the classes). *)
  List.iter
    (fun (c : Registry.case) ->
      let r = run_case c in
      match r.verdict with
      | Octopocs.Triggered { ptype; _ } ->
          let orig_crashes = Interp.crash_in (Interp.run c.t ~input:c.poc) ~funcs:r.ell in
          let expected = ptype = Octopocs.Type_I in
          check Alcotest.bool (Printf.sprintf "pair %d classification" c.idx) expected
            orig_crashes
      | _ -> ())
    Registry.all

let ep_is_vulnerable_function () =
  List.iter
    (fun (c : Registry.case) ->
      let r = run_case c in
      if r.ep <> "" then
        check Alcotest.string (Printf.sprintf "pair %d ep" c.idx) c.vuln_func r.ep)
    Registry.all

let reasons_match_mechanisms () =
  let reason idx =
    match (run_case (Registry.find idx)).verdict with
    | Octopocs.Not_triggerable r -> r
    | v -> Alcotest.failf "pair %d: expected Not_triggerable, got %s" idx
             (Octopocs.verdict_class v)
  in
  (match reason 10 with
  | Octopocs.Constraint_conflict 1 -> ()
  | _ -> Alcotest.fail "pair 10 should conflict on the hardcoded tag");
  (match reason 11 with
  | Octopocs.Ep_not_called -> ()
  | _ -> Alcotest.fail "pair 11 should report dead code");
  (match reason 12 with
  | Octopocs.Program_dead -> ()
  | _ -> Alcotest.fail "pair 12 should be program-dead");
  match reason 14 with
  | Octopocs.Constraint_conflict _ -> ()
  | _ -> Alcotest.fail "pair 14 should conflict on the patched guard"

let failure_is_cfg_error () =
  match (run_case (Registry.find 15)).verdict with
  | Octopocs.Failure msg ->
      check Alcotest.bool "mentions CFG" true
        (String.length msg >= 3 && String.sub msg 0 3 = "CFG")
  | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v)

let plain_taint_table3 () =
  let plain_config = { Octopocs.default_config with taint_mode = Taint.Plain } in
  List.iter
    (fun (c : Registry.case) ->
      let r = Octopocs.run ~config:plain_config ~s:c.s ~t:c.t ~poc:c.poc () in
      let triggered = match r.verdict with Octopocs.Triggered _ -> true | _ -> false in
      let expected = not (List.mem c.idx [ 3; 4; 9 ]) in
      check Alcotest.bool
        (Printf.sprintf "pair %d plain-taint outcome" c.idx)
        expected triggered)
    Registry.table3_cases

let explicit_ell_override () =
  let c = Registry.find 1 in
  let r = Octopocs.run ~ell:[ c.vuln_func ] ~s:c.s ~t:c.t ~poc:c.poc () in
  check Alcotest.string "verdict with explicit ℓ" "Type-I" (Octopocs.verdict_class r.verdict)

let empty_ell_fails_cleanly () =
  let c = Registry.find 1 in
  match (Octopocs.run ~ell:[] ~s:c.s ~t:c.t ~poc:c.poc ()).verdict with
  | Octopocs.Failure _ -> ()
  | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v)

let non_crashing_poc_fails_cleanly () =
  let c = Registry.find 1 in
  match (Octopocs.run ~s:c.s ~t:c.t ~poc:"MJ" ()).verdict with
  | Octopocs.Failure msg -> check Alcotest.string "message" "poc does not crash S" msg
  | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v)

let report_carries_artifacts () =
  let c = Registry.find 4 in
  let r = run_case c in
  check Alcotest.bool "taint result present" true (r.taint <> None);
  check Alcotest.bool "symex stats present" true (r.symex <> None);
  check Alcotest.int "two bunches for two frames" 2 (List.length r.bunches);
  check Alcotest.bool "elapsed recorded" true (r.elapsed_s >= 0.0)

let deterministic_verdicts () =
  let c = Registry.find 9 in
  let a = run_case c and b = run_case c in
  (match (a.verdict, b.verdict) with
  | Octopocs.Triggered x, Octopocs.Triggered y ->
      check Alcotest.string "same poc'" x.poc' y.poc'
  | _ -> Alcotest.fail "expected both triggered");
  check Alcotest.string "same class" (Octopocs.verdict_class a.verdict)
    (Octopocs.verdict_class b.verdict)

let identify_ep_scans_outermost_first () =
  let crash =
    { Interp.fault = Mem.Hang; crash_func = "inner"; crash_pc = 0;
      backtrace = [ "main"; "outer_shared"; "inner" ] }
  in
  check (Alcotest.option Alcotest.string) "first shared function wins"
    (Some "outer_shared")
    (Octopocs.identify_ep ~ell:[ "outer_shared"; "inner" ] crash);
  check (Alcotest.option Alcotest.string) "none in ell" None
    (Octopocs.identify_ep ~ell:[ "zzz" ] crash)

(* Every exit of one pipeline attempt that a pair can reach, rendered
   with the artifacts the report carries at that exit.  The MD5 of the
   rendering pins them all: a restructured attempt must leave every
   exit's verdict, ep, ℓ, bunch count, taint/symex presence, symex stats
   and degradations as they were.  Two exits have no pair: [Unsat_model]
   needs a store that propagation accepts and the complete model search
   refutes, and "poc' did not reproduce" needs a solver model that T's
   concrete run disagrees with; neither has been built. *)
let exit_pairs () =
  let c1 = Registry.find 1 in
  let run ?config ?ell ?(poc = c1.poc) ?(s = c1.s) ?(t = c1.t) () =
    Octopocs.run ?config ?ell ~s ~t ~poc ()
  in
  let case i ?config ?ell () =
    let c = Registry.find i in
    run ?config ?ell ~s:c.s ~t:c.t ~poc:c.poc ()
  in
  let chaos site =
    { Octopocs.default_config with
      inject = Octo_util.Faultinject.create ~rate:0. ~site_rates:[ (site, 1.0) ] ~seed:1 () }
  in
  (* T calls ep only in code after its exit: the call is syntactically
     reachable, the CFG path to it is not. *)
  let dead_call =
    let open Octo_vm.Isa in
    let open Octo_vm.Asm in
    let open Octo_targets.Dsl in
    assemble ~name:"dead_call" ~entry:"main"
      [
        fn "main" ~params:0
          (prologue @ exit_with 0
          @ [ I (Call ("mjpg_scan", [ Reg fd; Reg 21 ], Some 22)) ]
          @ exit_with 1);
        Octo_targets.Shared.mjpg_scan;
      ]
  in
  [
    ("no shared functions", run ~ell:[] ());
    ("poc does not crash S", run ~poc:"MJ" ());
    ("crash outside ell", run ~ell:[ "zzz" ] ());
    ("no crash primitives", run ~ell:[ "main" ] ());
    ("CFG recovery fails", case 15 ());
    ("CFG repaired", case 15 ~config:{ Octopocs.default_config with dynamic_cfg = true } ());
    ("ep never called", case 11 ());
    ("ep unreachable in the CFG", run ~ell:[ "mjpg_scan" ] ~t:dead_call ());
    ("program dead", case 12 ());
    ("constraint conflict", case 13 ());
    ( "symex budget",
      case 9
        ~config:
          { Octopocs.default_config with
            symex = { Octo_symex.Directed.default_config with max_runs = 2 } }
        () );
    ("solver budget", run ~config:(chaos Octo_util.Faultinject.Solver_budget) ());
    ("deadline", run ~config:(chaos Octo_util.Faultinject.Deadline_expiry) ());
    ("Type-I", case 1 ());
    ("Type-II", case 7 ());
  ]

let render_exit (name, (r : Octopocs.report)) =
  let symex =
    match r.symex with
    | None -> "-"
    | Some s ->
        Printf.sprintf "runs=%d steps=%d branches=%d retries=%d resumed=%d pruned=%d"
          s.Octo_symex.Directed.runs s.total_steps s.branches_decided s.loop_retries s.resumed
          s.states_pruned
  in
  Fmt.str "%s: %a | ep=%s | ell=%s | bunches=%d | taint=%b | symex=%b %s | degradations=%s\n"
    name Octopocs.pp_verdict r.verdict r.ep (String.concat "," r.ell) (List.length r.bunches)
    (r.taint <> None) (r.symex <> None) symex (String.concat "," r.degradations)

(* ------------------------------------------------------------------ *)
(* Products: a job's compiled S and T, ℓ and T's CFG live with the job. *)

module Metrics = Octo_util.Metrics

let with_metrics f =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

let cache_hits (r : Octopocs.report) =
  match r.metrics with Some m -> Metrics.counter_value m Metrics.Cache_hits | None -> 0

let same_verdict what (a : Octopocs.report) (b : Octopocs.report) =
  check Alcotest.string (what ^ " verdict")
    (Fmt.str "%a" Octopocs.pp_verdict a.verdict)
    (Fmt.str "%a" Octopocs.pp_verdict b.verdict);
  check Alcotest.string (what ^ " ep") a.ep b.ep;
  check Alcotest.(list string) (what ^ " ell") a.ell b.ell;
  check Alcotest.bool (what ^ " bunches") true (a.bunches = b.bunches);
  check Alcotest.(list string) (what ^ " degradations") a.degradations b.degradations

(* A batch run twice: the first pass builds every product, the second
   takes ℓ (no job overrides it) and every product the first built from
   the jobs, so each of its pairs counts at least one hit, two once the
   CFG was recovered, and the reports are equal. *)
let second_pass_serves_products () =
  with_metrics @@ fun () ->
  let jobs =
    List.map
      (fun (c : Registry.case) ->
        Octopocs.job ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ())
      Registry.all
  in
  let first = Octopocs.run_all jobs in
  let second = Octopocs.run_all jobs in
  List.iter2
    (fun (label, a) (_, b) ->
      same_verdict ("pair " ^ label) a b;
      check Alcotest.int ("pair " ^ label ^ ": first pass builds") 0 (cache_hits a);
      let least = if b.symex <> None then 2 else 1 in
      check Alcotest.bool
        (Printf.sprintf "pair %s: second pass serves %d >= %d" label (cache_hits b) least)
        true
        (cache_hits b >= least))
    first second

(* The escalated retry of a budget-starved pair reuses ℓ and the CFG its
   first attempt built. *)
let escalated_retry_serves_products () =
  with_metrics @@ fun () ->
  let c = Registry.find 9 in
  let config =
    { Octopocs.default_config with
      symex = { Octo_symex.Directed.default_config with max_runs = 2 } }
  in
  let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
  check Alcotest.(list string) "escalated" [ "symex-escalate" ] r.degradations;
  check Alcotest.bool (Printf.sprintf "%d hits >= 2" (cache_hits r)) true (cache_hits r >= 2)

(* Nothing outside a job keeps its products: once a one-shot job has
   settled and nothing refers to it, the job and its compiled T are
   garbage. *)
let settle_one_shot (c : Registry.case) ~job_slot ~code_slot =
  let products = Octopocs.products () in
  let r = Octopocs.verify ~products (Octopocs.probe ~s:c.s ~poc:c.poc) ~t:c.t () in
  check Alcotest.string "Type-I" "Type-I" (Octopocs.verdict_class r.verdict);
  check Alcotest.bool "compiled T built" true (Octopocs.compiled_t products <> None);
  Weak.set code_slot 0 (Octopocs.compiled_t products);
  let pending = ref [ Octopocs.job ~label:"one-shot" ~s:c.s ~t:c.t ~poc:c.poc () ] in
  let next () =
    match !pending with
    | j :: rest ->
        Weak.set job_slot 0 (Some j);
        pending := rest;
        Some j
    | [] -> None
  in
  let st = Octopocs.run_stream next in
  check Alcotest.int "settled" 1 st.Octopocs.st_settled

let one_shot_products_unreachable () =
  let job_slot = Weak.create 1 and code_slot = Weak.create 1 in
  (settle_one_shot [@inlined never]) (Registry.find 1) ~job_slot ~code_slot;
  Gc.full_major ();
  check Alcotest.bool "compiled T unreachable" false (Weak.check code_slot 0);
  check Alcotest.bool "job unreachable" false (Weak.check job_slot 0)

(* A job over an edited copy of T builds its own products: the copy's
   entry halts at once, so its verdict changes, and nothing is served
   from the original job, whose products still serve it. *)
let mutated_copy_builds_fresh () =
  with_metrics @@ fun () ->
  let c = Registry.find 1 in
  let t' : Isa.program = Marshal.from_string (Marshal.to_string c.t []) 0 in
  (Isa.func_exn t' t'.entry).code.(0) <- Isa.Halt;
  let products = Octopocs.products () in
  let verify ?(products = products) t =
    Octopocs.verify ~products (Octopocs.probe ~s:c.s ~poc:c.poc) ~t ()
  in
  let r = verify c.t in
  let r' = verify ~products:(Octopocs.products ()) t' in
  check Alcotest.string "original" "Type-I" (Octopocs.verdict_class r.verdict);
  check Alcotest.bool "copy not triggered" true (Octopocs.verdict_class r'.verdict <> "Type-I");
  check Alcotest.int "copy builds fresh" 0 (cache_hits r');
  let again = verify c.t in
  same_verdict "original again" r again;
  check Alcotest.bool "original served" true (cache_hits again >= 3)

(* Two domains verify against one record at once; whichever built first,
   the record settles on one compiled T that later verifies keep. *)
let racing_domains_settle () =
  let c = Registry.find 1 in
  let products = Octopocs.products () in
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do Domain.cpu_relax () done;
    Octopocs.verify ~products (Octopocs.probe ~s:c.s ~poc:c.poc) ~t:c.t ()
  in
  let reports = List.map Domain.join (List.init 2 (fun _ -> Domain.spawn worker)) in
  List.iter (same_verdict "racer" (Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc ())) reports;
  let kept = Option.get (Octopocs.compiled_t products) in
  ignore (Octopocs.verify ~products (Octopocs.probe ~s:c.s ~poc:c.poc) ~t:c.t ());
  check Alcotest.bool "one value" true (Option.get (Octopocs.compiled_t products) == kept)

let every_exit_pinned () =
  let rendering = String.concat "" (List.map render_exit (exit_pairs ())) in
  check Alcotest.string ("exits\n" ^ rendering) "79b4d39ca4cf03f41fd0e6cf8af1fdf0"
    (Digest.to_hex (Digest.string rendering))

let suite =
  [
    tc "all 15 verdicts match Table II" all_verdicts_match_table2;
    tc "poc' reproduces the crash inside ℓ" poc'_crashes_t_in_ell;
    tc "poc' size bounded" poc'_often_smaller_than_poc;
    tc "Type-I/II split matches original-poc behaviour" type1_poc_equivalence;
    tc "ep is the vulnerable function" ep_is_vulnerable_function;
    tc "Type-III reasons match mechanisms" reasons_match_mechanisms;
    tc "pair 15 fails with a CFG error" failure_is_cfg_error;
    tc "plain taint reproduces Table III" plain_taint_table3;
    tc "explicit ℓ override" explicit_ell_override;
    tc "empty ℓ fails cleanly" empty_ell_fails_cleanly;
    tc "non-crashing poc fails cleanly" non_crashing_poc_fails_cleanly;
    tc "report carries artifacts" report_carries_artifacts;
    tc "verdicts deterministic" deterministic_verdicts;
    tc "ep identification scans outermost first" identify_ep_scans_outermost_first;
    tc "every reachable exit of an attempt is pinned" every_exit_pinned;
    tc "products: a second run_all pass serves every job's products"
      second_pass_serves_products;
    tc "products: an escalated retry serves ℓ and the CFG" escalated_retry_serves_products;
    tc "products: a settled one-shot job leaves nothing behind" one_shot_products_unreachable;
    tc "products: a job over an edited copy builds its own" mutated_copy_builds_fresh;
    tc "products: racing domains settle on one value" racing_domains_settle;
  ]
