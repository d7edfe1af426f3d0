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

let stop_at_first _st ~count:_ ~args:_ ~file_pos:_ = Directed.Stop

let directed_reaches_every_triggerable_t () =
  List.iter
    (fun idx ->
      let c = Registry.find idx in
      let cfg = Cfg.build c.t ~ep:c.vuln_func in
      match Directed.run c.t ~ep:c.vuln_func ~cfg ~on_ep:stop_at_first with
      | Directed.Reached _, _ -> ()
      | Directed.Failed f, _ ->
          Alcotest.failf "pair %d: directed failed: %a" idx Directed.pp_failure f)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let directed_loop_retries_on_gif () =
  let c = Registry.find 9 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~on_ep:stop_at_first with
  | Directed.Reached _, stats ->
      (* The palette checksum pins the loop to 32 iterations. *)
      check Alcotest.bool "needed loop retries" true (stats.loop_retries >= 32)
  | Directed.Failed f, _ -> Alcotest.failf "failed: %a" Directed.pp_failure f

let directed_no_retries_on_simple () =
  let c = Registry.find 1 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~on_ep:stop_at_first with
  | Directed.Reached _, stats -> check Alcotest.int "no retries" 0 stats.loop_retries
  | Directed.Failed f, _ -> Alcotest.failf "failed: %a" Directed.pp_failure f

let directed_program_dead_on_contradiction () =
  let c = Registry.find 12 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~on_ep:stop_at_first with
  | Directed.Failed Directed.Program_dead, _ -> ()
  | Directed.Reached _, _ -> Alcotest.fail "libgdiplus ep should be unreachable"
  | Directed.Failed f, _ -> Alcotest.failf "wrong failure: %a" Directed.pp_failure f

let directed_theta_bounds_retries () =
  (* With θ = 4, the 32-iteration gif palette loop must give up. *)
  let c = Registry.find 9 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  let config = { Directed.default_config with theta = 4 } in
  match Directed.run ~config c.t ~ep:c.vuln_func ~cfg ~on_ep:stop_at_first with
  | Directed.Failed _, _ -> ()
  | Directed.Reached _, _ -> Alcotest.fail "theta=4 cannot cover 32 iterations"

let directed_conflict_via_on_ep () =
  (* An on_ep callback that injects an impossible constraint reports
     Conflict. *)
  let c = Registry.find 1 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  let on_ep (st : Sym_state.t) ~count:_ ~args:_ ~file_pos:_ =
    match
      Solve.add st.store { Expr.rel = Eq; lhs = Expr.const 1; rhs = Expr.const 2 }
    with
    | Solve.Unsat -> Directed.Conflict
    | Solve.Ok -> Directed.Stop
  in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~on_ep with
  | Directed.Failed (Directed.Constraint_conflict 1), _ -> ()
  | _ -> Alcotest.fail "expected conflict at entry 1"

let directed_guiding_solvable () =
  (* Reaching ep must leave a satisfiable store whose model drives the
     concrete program to the same ep. *)
  let c = Registry.find 1 in
  let cfg = Cfg.build c.t ~ep:c.vuln_func in
  match Directed.run c.t ~ep:c.vuln_func ~cfg ~on_ep:stop_at_first with
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
  match Directed.run p ~ep:"epf" ~cfg ~on_ep:stop_at_first with
  | Directed.Reached _, stats ->
      check Alcotest.bool "pruned the unsat preferred direction" true
        (stats.states_pruned > 0)
  | Directed.Failed f, _ -> Alcotest.failf "failed: %a" Directed.pp_failure f

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
    tc "naive: reaches shallow target" naive_reaches_shallow;
    tc "naive: MemError on branchy targets" naive_memerror_on_branchy;
    tc "naive: custom state cap" naive_state_cap_respected;
  ]
