(* Tests for the symbolic executor: stepping, branch events, concretization,
   directed execution with loop-state retries, and the naive baseline. *)

open Octo_vm.Isa
open Octo_vm.Asm
module Expr = Octo_solver.Expr
module Solve = Octo_solver.Solve
module Sym_state = Octo_symex.Sym_state
module Directed = Octo_symex.Directed
module Naive = Octo_symex.Naive
module Cfg = Octo_cfg.Cfg
module Registry = Octo_targets.Registry

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let rec drive st n =
  if n = 0 then Alcotest.fail "step budget in test driver"
  else
    match Sym_state.step st with
    | Sym_state.Running -> drive st (n - 1)
    | ev -> ev

(* ------------------------------------------------------------------ *)
(* Stepping basics *)

let concrete_branches_followed () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0
          [
            I (Mov (1, Imm 5));
            I (Jif (Lt, Reg 1, Imm 10, "a"));
            I (Sys (Exit (Imm 1)));
            L "a";
            I (Sys (Exit (Imm 0)));
          ];
      ]
  in
  let st = Sym_state.create p ~ep:"none_needed" in
  match drive st 100 with
  | Sym_state.Finished 0 -> ()
  | _ -> Alcotest.fail "expected clean finish through concrete branch"

let symbolic_branch_reported () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0
          ([
             I (Sys (Open 1));
             I (Sys (Alloc (2, Imm 4)));
             I (Sys (Read (3, Reg 1, Reg 2, Imm 1)));
             I (Load8 (4, Reg 2, Imm 0));
             I (Jif (Eq, Reg 4, Imm 0x41, "a"));
             I (Sys (Exit (Imm 1)));
             L "a";
             I (Sys (Exit (Imm 0)));
           ]);
      ]
  in
  let st = Sym_state.create p ~ep:"x" in
  match drive st 100 with
  | Sym_state.Branch_choice br ->
      check Alcotest.bool "not a loop" false br.br_is_loop;
      check Alcotest.bool "taken commits constraint" true
        (Sym_state.take_branch st br ~taken:true);
      (* After committing, byte 0 is pinned to 0x41. *)
      check (Alcotest.pair Alcotest.int Alcotest.int) "pinned" (0x41, 0x41)
        (Solve.dom st.store 0);
      (match drive st 100 with
      | Sym_state.Finished 0 -> ()
      | _ -> Alcotest.fail "expected exit 0 after branch")
  | _ -> Alcotest.fail "expected branch choice"

let branch_unsat_direction_rejected () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0
          [
            I (Sys (Open 1));
            I (Sys (Alloc (2, Imm 4)));
            I (Sys (Read (3, Reg 1, Reg 2, Imm 1)));
            I (Load8 (4, Reg 2, Imm 0));
            I (Jif (Gt, Reg 4, Imm 300, "a"));  (* a byte can never exceed 300 *)
            I (Sys (Exit (Imm 0)));
            L "a";
            I (Sys (Exit (Imm 1)));
          ];
      ]
  in
  let st = Sym_state.create p ~ep:"x" in
  (* The branch is decided by intervals: never taken, no choice event. *)
  match drive st 100 with
  | Sym_state.Finished 0 -> ()
  | _ -> Alcotest.fail "interval reasoning should decide the branch"

let ep_entry_event () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0 [ I (Call ("epf", [ Imm 9 ], None)); I Halt ];
        fn "epf" ~params:1 [ I (Ret (Imm 0)) ];
      ]
  in
  let st = Sym_state.create p ~ep:"epf" in
  match drive st 100 with
  | Sym_state.Entered_ep { count; args; file_pos } ->
      check Alcotest.int "first entry" 1 count;
      check Alcotest.int "no file yet" 0 file_pos;
      (match args with
      | [ Expr.Const 9 ] -> ()
      | _ -> Alcotest.fail "expected const arg")
  | _ -> Alcotest.fail "expected ep event"

let symbolic_memory_from_file () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0
          [
            I (Sys (Open 1));
            I (Sys (Alloc (2, Imm 4)));
            I (Sys (Read (3, Reg 1, Reg 2, Imm 1)));
            I (Load8 (4, Reg 2, Imm 0));
            I Halt;
          ];
      ]
  in
  let st = Sym_state.create p ~ep:"x" in
  (match drive st 100 with Sym_state.Finished _ -> () | _ -> Alcotest.fail "finish");
  let fr = Sym_state.current st in
  match fr.regs.(4) with
  | Expr.Byte 0 -> ()
  | e -> Alcotest.failf "expected Byte 0, got %a" Expr.pp e

let clone_isolates_state () =
  let p =
    assemble ~name:"t" ~entry:"main" [ fn "main" ~params:0 [ I (Mov (1, Imm 1)); I Halt ] ]
  in
  let st = Sym_state.create p ~ep:"x" in
  let st2 = Sym_state.clone st in
  ignore (Sym_state.step st);
  let fr = Sym_state.current st and fr2 = Sym_state.current st2 in
  check Alcotest.bool "clone unaffected" true (fr.regs.(1) <> fr2.regs.(1) || fr.pc <> fr2.pc)

(* ------------------------------------------------------------------ *)
(* Directed execution on the real targets *)

let directed_reaches_every_triggerable_t () =
  List.iter
    (fun idx ->
      let c = Registry.find idx in
      let cfg = Cfg.build c.t ~ep:c.vuln_func in
      match Directed.run c.t ~ep:c.vuln_func ~cfg ~ledger:() ~on_ep:Directed.stop_at_first with
      | Directed.Reached _, _ -> ()
      | Directed.Failed f, _ ->
          Alcotest.failf "pair %d: directed failed: %a" idx Directed.pp_failure f)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let directed_loop_retries_on_gif () =
  let c = Registry.find 9 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~ledger:() ~on_ep:Directed.stop_at_first with
  | Directed.Reached _, stats ->
      (* The palette checksum pins the loop to 32 iterations. *)
      check Alcotest.bool "needed loop retries" true (stats.loop_retries >= 32)
  | Directed.Failed f, _ -> Alcotest.failf "failed: %a" Directed.pp_failure f

let directed_no_retries_on_simple () =
  let c = Registry.find 1 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~ledger:() ~on_ep:Directed.stop_at_first with
  | Directed.Reached _, stats -> check Alcotest.int "no retries" 0 stats.loop_retries
  | Directed.Failed f, _ -> Alcotest.failf "failed: %a" Directed.pp_failure f

let directed_program_dead_on_contradiction () =
  let c = Registry.find 12 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~ledger:() ~on_ep:Directed.stop_at_first with
  | Directed.Failed Directed.Program_dead, _ -> ()
  | Directed.Reached _, _ -> Alcotest.fail "libgdiplus ep should be unreachable"
  | Directed.Failed f, _ -> Alcotest.failf "wrong failure: %a" Directed.pp_failure f

let directed_theta_bounds_retries () =
  (* With θ = 4, the 32-iteration gif palette loop must give up. *)
  let c = Registry.find 9 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  let config = { Directed.default_config with theta = 4 } in
  match Directed.run ~config c.t ~ep:c.vuln_func ~cfg ~ledger:() ~on_ep:Directed.stop_at_first with
  | Directed.Failed _, _ -> ()
  | Directed.Reached _, _ -> Alcotest.fail "theta=4 cannot cover 32 iterations"

let directed_conflict_via_on_ep () =
  (* An on_ep callback that injects an impossible constraint reports
     Conflict. *)
  let c = Registry.find 1 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  let on_ep (st : Sym_state.t) () ~count:_ ~args:_ ~file_pos:_ =
    match
      Solve.add st.store { Expr.rel = Eq; lhs = Expr.const 1; rhs = Expr.const 2 }
    with
    | Solve.Unsat -> (Directed.Conflict, ())
    | Solve.Ok -> (Directed.Stop, ())
  in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~ledger:() ~on_ep with
  | Directed.Failed (Directed.Constraint_conflict 1), _ -> ()
  | _ -> Alcotest.fail "expected conflict at entry 1"

let directed_guiding_solvable () =
  (* Reaching ep must leave a satisfiable store whose model drives the
     concrete program to the same ep. *)
  let c = Registry.find 1 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~ledger:() ~on_ep:Directed.stop_at_first with
  | Directed.Reached st, _ -> (
      match Solve.solve st.store with
      | Solve.Sat m ->
          let input =
            String.init st.max_read_off (fun i -> Char.chr (Solve.model_byte m i land 0xff))
          in
          let called = ref false in
          let hooks =
            {
              Octo_vm.Interp.no_hooks with
              on_call = (fun ~fname ~frame_id:_ ~args:_ -> if fname = c.vuln_func then called := true);
            }
          in
          ignore (Octo_vm.Interp.run ~hooks c.t ~input);
          check Alcotest.bool "guiding input reaches ep concretely" true !called
      | _ -> Alcotest.fail "guiding constraints unsolvable")
  | Directed.Failed f, _ -> Alcotest.failf "failed: %a" Directed.pp_failure f

let directed_prunes_unsat_preferred () =
  (* A branch whose condition is relational (two symbolic bytes) cannot be
     decided by interval reasoning, so the executor must try the
     distance-preferred direction through the solver.  Committing x < y
     first makes the later preferred direction x > y unsat: the state is
     pruned and the run survives through the fallback. *)
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0
          [
            I (Sys (Open 1));
            I (Sys (Alloc (2, Imm 4)));
            I (Sys (Read (3, Reg 1, Reg 2, Imm 2)));
            I (Load8 (4, Reg 2, Imm 0));
            I (Load8 (5, Reg 2, Imm 1));
            I (Jif (Lt, Reg 4, Reg 5, "lt"));  (* toward ep: commits x < y *)
            I (Sys (Exit (Imm 1)));
            L "lt";
            I (Jif (Gt, Reg 4, Reg 5, "gt"));  (* preferred, but x > y is unsat *)
            I (Mov (6, Imm 0));
            I (Call ("epf", [], None));
            I (Sys (Exit (Imm 0)));
            L "gt";
            I (Call ("epf", [], None));
            I (Sys (Exit (Imm 0)));
          ];
        fn "epf" ~params:0 [ I (Ret (Imm 0)) ];
      ]
  in
  let cfg = Cfg.build p ~ep:"epf" in
  match Directed.run p ~ep:"epf" ~cfg ~ledger:() ~on_ep:Directed.stop_at_first with
  | Directed.Reached _, stats ->
      check Alcotest.bool "pruned the unsat preferred direction" true
        (stats.states_pruned > 0)
  | Directed.Failed f, _ -> Alcotest.failf "failed: %a" Directed.pp_failure f

(* ------------------------------------------------------------------ *)
(* Incremental loop retry vs the from-scratch chain

   [Directed.run] resumes every loop retry from the granted loop's
   snapshot; [Directed.run_reference] replays every attempt from a fresh
   state.  The two must agree on everything except the work executed. *)

module Prov = Octopocs.Provenance
module Metrics = Octo_util.Metrics
module Deadline = Octo_util.Deadline
module Taint = Octo_taint.Taint
module Compile = Octo_vm.Compile
module Interp = Octo_vm.Interp
module Clone = Octo_clone.Clone
module Source = Octo_targets.Source

let render_event = function
  | Prov.Loop_retry _ as e -> Some (Fmt.str "%a" Prov.pp_event e)
  | Prov.Conflict { seq; core } ->
      Some
        (Fmt.str "conflict #%d: %s" seq
           (String.concat "; "
              (List.map
                 (fun (e : Prov.core_entry) -> Fmt.str "%a: %s" Prov.pp_origin e.origin e.cond)
                 core)))
  | _ -> None

(* What both chains must agree on: the outcome with its failure payload,
   the guiding input (max_read_off and the solved model bytes), the
   attempt and grant counts, and the Loop_retry/Conflict evidence. *)
type chain_view = { result : string; evidence : string list; stats : Directed.stats }

let loop_retry_probe =
  {
    Directed.on_forced = (fun ~func:_ ~pc:_ ~preferred_taken:_ -> ());
    on_pruned = (fun ~func:_ ~pc:_ -> ());
    on_loop_retry =
      (fun ~func ~pc ~granted ~theta -> Prov.emit (Prov.Loop_retry { func; pc; granted; theta }));
  }

let view_chain ~reference ?config p ~ep ~cfg ~ledger ~on_ep =
  let run = if reference then Directed.run_reference else Directed.run in
  let was_on = Prov.is_on () in
  if not was_on then Prov.enable ();
  let (outcome, stats), prov =
    Fun.protect
      ~finally:(fun () -> if not was_on then Prov.disable ())
      (fun () ->
        Prov.scoped (fun () ->
            run ?config ~probe:loop_retry_probe p ~ep ~cfg ~ledger ~on_ep))
  in
  let result =
    match outcome with
    | Directed.Failed f -> Fmt.str "failed: %a" Directed.pp_failure f
    | Directed.Reached st ->
        let model =
          match Solve.solve st.store with
          | Solve.Sat m ->
              String.init st.max_read_off (fun i -> Char.chr (Solve.model_byte m i land 0xff))
          | Solve.Unsat_result -> "unsat"
          | Solve.Unknown -> "unknown"
        in
        Printf.sprintf "reached: max_read_off=%d model=%S" st.max_read_off model
  in
  let evidence =
    match prov with
    | None -> []
    | Some (t : Prov.t) ->
        if t.dropped > 0 then Alcotest.fail "provenance ring overflowed";
        List.filter_map render_event t.events
  in
  { result; evidence; stats }

(* Runs both chains and checks they agree; returns (incremental, reference). *)
let same_chains ~what ?config p ~ep ~cfg ~ledger ~on_ep =
  let inc = view_chain ~reference:false ?config p ~ep ~cfg ~ledger ~on_ep in
  let rf = view_chain ~reference:true ?config p ~ep ~cfg ~ledger ~on_ep in
  check Alcotest.string (what ^ ": outcome and model") rf.result inc.result;
  check Alcotest.int (what ^ ": runs") rf.stats.runs inc.stats.runs;
  check Alcotest.int (what ^ ": loop retries") rf.stats.loop_retries inc.stats.loop_retries;
  check Alcotest.(list string) (what ^ ": retry and conflict evidence") rf.evidence inc.evidence;
  if inc.stats.total_steps > rf.stats.total_steps then
    Alcotest.failf "%s: resumed chain executed more steps (%d > %d)" what inc.stats.total_steps
      rf.stats.total_steps;
  (inc, rf)

(* The pipeline up to P2, by hand: crash S, pick ep, extract the bunches,
   recover T's CFG.  [None] when the pair settles before P2. *)
let p2_inputs ~s ~t ~poc ~ell =
  let config = Octopocs.default_config in
  let ell =
    match ell with Some l -> l | None -> Clone.ell_names (Clone.shared_functions s t)
  in
  let cs = Compile.compile s in
  match (Compile.run cs ~input:poc).outcome with
  | Interp.Exited _ -> None
  | Interp.Crashed crash -> (
      match Octopocs.identify_ep ~ell crash with
      | None -> None
      | Some ep -> (
          let taint =
            Taint.extract ~mode:config.taint_mode ~granularity:config.taint_granularity
              ~compiled:cs s ~poc ~ep
          in
          if taint.bunches = [] then None
          else
            match Cfg.build t ~ep with
            | cfg -> Some (ep, taint.bunches, cfg)
            | exception Cfg.Cfg_error _ -> None))

(* Differential over real pairs, P3 and provenance included; returns how
   many pairs needed loop retries. *)
let same_chains_on_pair ~what ~s ~t ~poc ~ell =
  match p2_inputs ~s ~t ~poc ~ell with
  | None -> 0
  | Some (ep, bunches, cfg) ->
      let config = Octopocs.default_config in
      let inc, _ =
        same_chains ~what ~config:config.symex t ~ep ~cfg ~ledger:[]
          ~on_ep:(Octopocs.place_bunches bunches)
      in
      if inc.stats.loop_retries > 0 then 1 else 0

let resume_matches_reference_on_registry () =
  let with_retries =
    List.fold_left
      (fun n (c : Registry.case) ->
        n
        + same_chains_on_pair ~what:(Printf.sprintf "pair %d" c.idx) ~s:c.s ~t:c.t ~poc:c.poc
            ~ell:None)
      0 Registry.all
  in
  check Alcotest.bool "some registry pair retries loops" true (with_retries >= 2)

let resume_matches_reference_on_corpus ~count ~seed () =
  let spec = Printf.sprintf "gen:%d:%d" count seed in
  let src = Source.generated ~seed ~count () in
  let rec go n =
    match src.pull () with
    | None -> n
    | Some (p : Source.pair) ->
        go
          (n
          + same_chains_on_pair ~what:(spec ^ " " ^ p.plabel) ~s:p.ps ~t:p.pt ~poc:p.ppoc
              ~ell:p.pell)
  in
  let with_retries = go 0 in
  check Alcotest.bool (spec ^ ": some pair retries loops") true (with_retries > 0)

(* Synthetic programs.  [read_prefix n] reads n symbolic bytes into the
   buffer in r2; [count] returns the number of non-zero bytes before the
   first zero at its argument, with the exit test at the loop head. *)
let read_prefix n =
  [ I (Sys (Open 1)); I (Sys (Alloc (2, Imm 64))); I (Sys (Read (3, Reg 1, Reg 2, Imm n))) ]

let count_fn =
  fn "count" ~params:1
    [
      I (Load8 (3, Reg 0, Imm 0));
      I (Mov (1, Imm 0));
      L "head";
      I (Jif (Eq, Reg 3, Imm 0, "done"));
      I (Bin (Add, 1, Reg 1, Imm 1));
      I (Bin (Add, 2, Reg 0, Reg 1));
      I (Load8 (3, Reg 2, Imm 0));
      I (Jmp "head");
      L "done";
      I (Ret (Reg 1));
    ]

let epf = fn "epf" ~params:0 [ I (Ret (Imm 0)) ]

let synthetic main = assemble ~name:"t" ~entry:"main" [ fn "main" ~params:0 main; count_fn; epf ]

let loop_retries (v : chain_view) =
  List.filter (fun e -> Test_util.contains ~needle:"granted" e) v.evidence

let two_loops_snapshots () =
  (* count(buf) is loop C, the inline loop over buf+16 is loop M.  The
     path needs M = C + 2 iterations, then count(buf+8) = 1.  Grants:
     M twice (resumed from M's snapshot; C's, taken earlier, survives),
     then C, blamed by the second count call, resumed from C's snapshot
     in the first call.  That resume must drop M's snapshot: M's next
     grant then has to resume from the state where C iterated once. *)
  let p =
    synthetic
      (read_prefix 32
      @ [
          I (Call ("count", [ Reg 2 ], Some 10));
          I (Bin (Add, 6, Reg 2, Imm 16));
          I (Load8 (4, Reg 6, Imm 0));
          I (Mov (5, Imm 0));
          L "m";
          I (Jif (Eq, Reg 4, Imm 0, "m_done"));
          I (Bin (Add, 5, Reg 5, Imm 1));
          I (Bin (Add, 7, Reg 6, Reg 5));
          I (Load8 (4, Reg 7, Imm 0));
          I (Jmp "m");
          L "m_done";
          I (Bin (Add, 8, Reg 10, Imm 2));
          I (Jif (Ne, Reg 5, Reg 8, "dead"));
          I (Bin (Add, 9, Reg 2, Imm 8));
          I (Call ("count", [ Reg 9 ], Some 11));
          I (Jif (Ne, Reg 11, Imm 1, "dead"));
          I (Call ("epf", [], None));
          I (Sys (Exit (Imm 0)));
          L "dead";
          I (Sys (Exit (Imm 1)));
        ])
  in
  let cfg = Cfg.build p ~ep:"epf" in
  let inc, rf =
    same_chains ~what:"two loops" p ~ep:"epf" ~cfg ~ledger:() ~on_ep:Directed.stop_at_first
  in
  check Alcotest.bool "reached" true (String.starts_with ~prefix:"reached" inc.result);
  check Alcotest.(list string) "grant order"
    [
      "symex: loop main@7 granted iteration 1/120";
      "symex: loop main@7 granted iteration 2/120";
      "symex: loop count@2 granted iteration 1/120";
      "symex: loop main@7 granted iteration 3/120";
    ]
    (loop_retries inc);
  check Alcotest.int "every retry resumed" 4 inc.stats.resumed;
  check Alcotest.int "the reference never resumes" 0 rf.stats.resumed

let blamed_loop_without_snapshot_restarts () =
  (* x < y is committed first, so the loop's continue direction x > y is
     unsat while its exit x <= y is not: after the first grant the loop
     is forced out, blamed without ever deciding "exit", and the next
     retry has no snapshot to resume from. *)
  let p =
    synthetic
      (read_prefix 4
      @ [
          I (Load8 (4, Reg 2, Imm 0));
          I (Load8 (5, Reg 2, Imm 1));
          I (Jif (Lt, Reg 4, Reg 5, "head"));
          I (Sys (Exit (Imm 1)));
          L "head";
          I (Jif (Le, Reg 4, Reg 5, "out"));
          I (Call ("epf", [], None));
          I (Sys (Exit (Imm 0)));
          I (Jmp "head");
          L "out";
          I (Sys (Exit (Imm 1)));
        ])
  in
  let cfg = Cfg.build p ~ep:"epf" in
  let config = { Directed.default_config with theta = 4 } in
  let inc, _ =
    same_chains ~what:"forced exit" ~config p ~ep:"epf" ~cfg ~ledger:()
      ~on_ep:Directed.stop_at_first
  in
  check Alcotest.string "program-dead" "failed: program-dead (ℓ unreachable)" inc.result;
  check Alcotest.int "theta grants" 4 inc.stats.loop_retries;
  check Alcotest.int "only the first grant resumed" 1 inc.stats.resumed

let repeat_only_loop_keeps_wasted_attempt () =
  (* The exit test is not a static loop head: visit 1 goes by distance
     (into the body), and the branch is a loop only from visit 2 on.  A
     grant of 1 re-decides visit 2 exactly as before — the wasted attempt
     of the from-scratch chain — and a grant of 2 continues. *)
  let p =
    synthetic
      (read_prefix 8
      @ [
          I (Mov (5, Imm 0));
          L "top";
          I (Bin (Add, 6, Reg 2, Reg 5));
          I (Load8 (4, Reg 6, Imm 0));
          I (Jif (Eq, Reg 4, Imm 0, "out"));
          I (Bin (Add, 5, Reg 5, Imm 1));
          I (Jif (Eq, Reg 5, Imm 3, "hit"));
          I (Jmp "top");
          L "hit";
          I (Call ("epf", [], None));
          I (Sys (Exit (Imm 0)));
          L "out";
          I (Sys (Exit (Imm 1)));
        ])
  in
  let cfg = Cfg.build p ~ep:"epf" in
  let inc, _ =
    same_chains ~what:"repeat-only loop" p ~ep:"epf" ~cfg ~ledger:()
      ~on_ep:Directed.stop_at_first
  in
  check Alcotest.bool "reached" true (String.starts_with ~prefix:"reached" inc.result);
  check Alcotest.int "runs, one wasted" 4 inc.stats.runs;
  check Alcotest.int "grants" 3 inc.stats.loop_retries;
  check Alcotest.int "all resumed" 3 inc.stats.resumed

let step_budget_cuts_at_same_step () =
  (* The resumed state carries its prefix's step count, so [max_steps]
     ends the chain at the same attempt and step as from scratch. *)
  let c = Registry.find 9 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  let full =
    match Directed.run c.t ~ep:c.vuln_func ~cfg ~ledger:() ~on_ep:Directed.stop_at_first with
    | Directed.Reached st, _ -> st.steps
    | Directed.Failed f, _ -> Alcotest.failf "failed: %a" Directed.pp_failure f
  in
  List.iter
    (fun max_steps ->
      let config = { Directed.default_config with max_steps } in
      let inc, _ =
        same_chains ~what:(Printf.sprintf "max_steps %d" max_steps) ~config c.t ~ep:c.vuln_func
          ~cfg ~ledger:() ~on_ep:Directed.stop_at_first
      in
      let want = if max_steps >= full - 1 then "reached" else "failed: budget exhausted" in
      check Alcotest.bool
        (Printf.sprintf "max_steps %d: %s" max_steps want)
        true
        (String.starts_with ~prefix:want inc.result))
    [ 40; 120; 250; full / 2; full - 3; full - 2; full - 1; full ]

let ledger_survives_resume () =
  (* Entry #1 pins byte 18 = 0x41; the loop in count needs one grant;
     entry #2 then pins byte 18 = 0x42 and conflicts.  The resumed attempt
     must label the core member from entry #1 as bunch 1's pin, exactly
     as the from-scratch replay does. *)
  let p =
    synthetic
      (read_prefix 16
      @ [
          I (Call ("epf", [], None));
          I (Call ("count", [ Reg 2 ], Some 10));
          I (Jif (Ne, Reg 10, Imm 1, "dead"));
          I (Call ("epf", [], None));
          I (Sys (Exit (Imm 0)));
          L "dead";
          I (Sys (Exit (Imm 1)));
        ])
  in
  let bunch seq v =
    { Taint.seq; prims = [ (18, v) ]; ep_args = []; anchor = 16; merged = false; sites = [] }
  in
  let cfg = Cfg.build p ~ep:"epf" in
  let inc, _ =
    same_chains ~what:"ledger" p ~ep:"epf" ~cfg ~ledger:[]
      ~on_ep:(Octopocs.place_bunches [ bunch 1 0x41; bunch 2 0x42 ])
  in
  check Alcotest.string "conflict" "failed: constraint conflict at ep entry #2" inc.result;
  check Alcotest.int "resumed" 1 inc.stats.resumed;
  let conflict = List.find (String.starts_with ~prefix:"conflict") inc.evidence in
  check Alcotest.bool "entry #1's pin labelled" true
    (Test_util.contains ~needle:"bunch 1 byte in[18]=0x41" conflict)

let deadline_cut_still_counts_work () =
  (* The first grant waits the deadline out, so the resumed attempt's poll
     raises; the branch decisions already made must reach Metrics. *)
  let c = Registry.find 9 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  let deadline = Deadline.after ~seconds:0.05 in
  let probe =
    {
      loop_retry_probe with
      Directed.on_loop_retry =
        (fun ~func:_ ~pc:_ ~granted:_ ~theta:_ ->
          while not (Deadline.expired deadline) do
            Unix.sleepf 0.005
          done);
    }
  in
  let was_on = Metrics.is_on () in
  Metrics.enable ();
  let before = Metrics.current () in
  let raised =
    match
      Directed.run ~probe ~deadline c.t ~ep:c.vuln_func ~cfg ~ledger:()
        ~on_ep:Directed.stop_at_first
    with
    | _ -> false
    | exception Deadline.Deadline_exceeded _ -> true
  in
  let delta = Metrics.diff (Metrics.current ()) before in
  if not was_on then Metrics.disable ();
  check Alcotest.bool "deadline cut the chain" true raised;
  check Alcotest.bool "branch decisions recorded" true
    (Metrics.counter_value delta Metrics.Symex_states_forked > 0)

(* ------------------------------------------------------------------ *)
(* Naive execution *)

let naive_reaches_shallow () =
  let c = Registry.find 7 in
  match Naive.run c.t ~ep:c.vuln_func with
  | Naive.Reached _, _ -> ()
  | _ -> Alcotest.fail "opj_dump is shallow enough for naive BFS"

let naive_memerror_on_branchy () =
  List.iter
    (fun idx ->
      let c = Registry.find idx in
      match Naive.run c.t ~ep:c.vuln_func with
      | Naive.Mem_error _, stats ->
          check Alcotest.bool "states exploded" true
            (stats.peak_states > Naive.default_config.max_states)
      | _ -> Alcotest.failf "pair %d should MemError" idx)
    [ 8; 9 ]

let naive_state_cap_respected () =
  let c = Registry.find 9 in
  let config = { Naive.default_config with max_states = 64 } in
  match Naive.run ~config c.t ~ep:c.vuln_func with
  | Naive.Mem_error n, _ -> check Alcotest.bool "cap honored" true (n <= 64 + 2)
  | _ -> Alcotest.fail "expected MemError with tiny cap"

let suite =
  [
    tc "step: concrete branches followed" concrete_branches_followed;
    tc "step: symbolic branch reported" symbolic_branch_reported;
    tc "step: intervals decide impossible branch" branch_unsat_direction_rejected;
    tc "step: ep entry event" ep_entry_event;
    tc "step: file bytes become symbols" symbolic_memory_from_file;
    tc "step: clone isolation" clone_isolates_state;
    tc "directed: reaches ep on pairs 1-9" directed_reaches_every_triggerable_t;
    tc "directed: gif needs 32 loop retries" directed_loop_retries_on_gif;
    tc "directed: simple pair needs none" directed_no_retries_on_simple;
    tc "directed: program-dead on contradiction" directed_program_dead_on_contradiction;
    tc "directed: theta bounds retries" directed_theta_bounds_retries;
    tc "directed: conflict surfaces from on_ep" directed_conflict_via_on_ep;
    tc "directed: guiding input verified concretely" directed_guiding_solvable;
    tc "directed: prunes unsat preferred direction" directed_prunes_unsat_preferred;
    tc "resume: matches reference on registry" resume_matches_reference_on_registry;
    tc "resume: matches reference on gen:1000:42"
      (resume_matches_reference_on_corpus ~count:1000 ~seed:42);
    tc "resume: matches reference on gen:300:7919"
      (resume_matches_reference_on_corpus ~count:300 ~seed:7919);
    tc "resume: two loops, snapshots kept and dropped" two_loops_snapshots;
    tc "resume: blamed loop without snapshot restarts" blamed_loop_without_snapshot_restarts;
    tc "resume: repeat-only loop keeps the wasted attempt" repeat_only_loop_keeps_wasted_attempt;
    tc "resume: step budget cuts at the same step" step_budget_cuts_at_same_step;
    tc "resume: P3 pin ledger travels with the snapshot" ledger_survives_resume;
    tc "resume: deadline cut still counts symex work" deadline_cut_still_counts_work;
    tc "naive: reaches shallow target" naive_reaches_shallow;
    tc "naive: MemError on branchy targets" naive_memerror_on_branchy;
    tc "naive: custom state cap" naive_state_cap_respected;
  ]
