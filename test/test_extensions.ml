(* Tests for the extensions beyond the paper's evaluation: symbolic
   table-select expressions, profile-guided devirtualization, and the
   dynamic-CFG pipeline mode that repairs the Idx-15 failure. *)

open Octo_vm
open Octo_vm.Isa
open Octo_vm.Asm
module Expr = Octo_solver.Expr
module Solve = Octo_solver.Solve
module Sym_state = Octo_symex.Sym_state
module Dyncfg = Octo_cfg.Dyncfg
module Devirt = Octo_cfg.Devirt
module Cfg = Octo_cfg.Cfg
module Registry = Octo_targets.Registry

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Sel expressions *)

let table = [| 9; 4; 4; 7; 1 |]

let sel_folds_constant_index () =
  match Expr.sel table (Expr.const 3) with
  | Expr.Const 7 -> ()
  | e -> Alcotest.failf "expected fold, got %a" Expr.pp e

let sel_eval () =
  let e = Expr.sel table (Expr.byte 0) in
  check Alcotest.int "in range" 4 (Expr.eval (fun _ -> 1) e);
  check Alcotest.int "out of range is zero" 0 (Expr.eval (fun _ -> 200) e)

let sel_ival_bounds () =
  let s = Solve.create () in
  ignore (Solve.add s { Expr.rel = Le; lhs = Expr.byte 0; rhs = Expr.const 4 });
  let lo, hi = Solve.ival s (Expr.sel table (Expr.byte 0)) in
  check Alcotest.bool "bounds cover table" true (lo <= 1 && hi >= 9)

let sel_narrowing_pins_index () =
  let s = Solve.create () in
  ignore (Solve.add s { Expr.rel = Le; lhs = Expr.byte 0; rhs = Expr.const 4 });
  (match Solve.add s { Expr.rel = Eq; lhs = Expr.sel table (Expr.byte 0); rhs = Expr.const 7 } with
  | Solve.Ok -> ()
  | Solve.Unsat -> Alcotest.fail "7 is present at index 3");
  check (Alcotest.pair Alcotest.int Alcotest.int) "index pinned" (3, 3) (Solve.dom s 0)

let sel_narrowing_unsat_for_absent () =
  let s = Solve.create () in
  ignore (Solve.add s { Expr.rel = Le; lhs = Expr.byte 0; rhs = Expr.const 4 });
  match Solve.add s { Expr.rel = Eq; lhs = Expr.sel table (Expr.byte 0); rhs = Expr.const 42 } with
  | Solve.Unsat -> ()
  | Solve.Ok -> (
      match Solve.solve s with
      | Solve.Sat _ -> Alcotest.fail "42 is not in the table"
      | _ -> ())

let sel_solve_finds_witness () =
  let s = Solve.create () in
  ignore (Solve.add s { Expr.rel = Le; lhs = Expr.byte 0; rhs = Expr.const 4 });
  ignore (Solve.add s { Expr.rel = Eq; lhs = Expr.sel table (Expr.byte 0); rhs = Expr.const 4 });
  match Solve.solve s with
  | Solve.Sat m ->
      let i = Solve.model_byte m 0 in
      check Alcotest.bool "witness index maps to 4" true (i = 1 || i = 2)
  | _ -> Alcotest.fail "expected sat"

(* ------------------------------------------------------------------ *)
(* Symbolic table loads in the executor *)

let table_load_program =
  assemble ~name:"tl" ~entry:"main" ~data:[ ("tab", "\x01\x02\x03\x04") ]
    [
      fn "main" ~params:0
        [
          I (Sys (Open 1));
          I (Sys (Alloc (2, Imm 4)));
          I (Sys (Read (3, Reg 1, Reg 2, Imm 1)));
          I (Load8 (4, Reg 2, Imm 0));
          I (Bin (And, 4, Reg 4, Imm 3));     (* bounded symbolic index *)
          I (Load8 (5, Sym "tab", Reg 4));    (* table lookup *)
          I (Jif (Eq, Reg 5, Imm 3, "hit"));
          I (Sys (Exit (Imm 1)));
          L "hit";
          I (Sys (Exit (Imm 0)));
        ];
    ]

let executor_builds_sel () =
  let st = Sym_state.create table_load_program ~ep:"x" in
  let rec go n =
    if n = 0 then Alcotest.fail "budget"
    else
      match Sym_state.step st with
      | Sym_state.Running -> go (n - 1)
      | Sym_state.Branch_choice br -> br
      | _ -> Alcotest.fail "expected to stop at the table-value branch"
  in
  let br = go 100 in
  (* The branch condition must mention a Sel, not a concretized constant. *)
  let rec has_sel = function
    | Expr.Sel _ -> true
    | Expr.Bin (_, a, b) -> has_sel a || has_sel b
    | Expr.Const _ | Expr.Byte _ -> false
  in
  check Alcotest.bool "condition carries the table" true
    (has_sel br.br_cond.lhs || has_sel br.br_cond.rhs);
  (* Taking the branch must be satisfiable and pin the input byte to an
     index whose entry is 3 (index 2). *)
  check Alcotest.bool "taken satisfiable" true (Sym_state.take_branch st br ~taken:true);
  match Solve.solve st.store with
  | Solve.Sat m -> check Alcotest.int "input selects entry 3" 2 (Solve.model_byte m 0 land 3)
  | _ -> Alcotest.fail "expected model"

(* ------------------------------------------------------------------ *)
(* Devirtualization *)

let idx15_t = (Registry.find 15).t

let detects_unresolved () =
  check Alcotest.bool "idx15 T has unresolved icalls" true
    (Devirt.has_unresolved_icalls idx15_t);
  check Alcotest.bool "idx1 T does not" false
    (Devirt.has_unresolved_icalls (Registry.find 1).t)

let devirt_removes_icalls () =
  let c = Registry.find 15 in
  let observed = Dyncfg.observe c.t ~seeds:[ c.poc ] in
  let t' = Devirt.apply c.t ~observed in
  check Alcotest.bool "no unresolved icalls remain" false (Devirt.has_unresolved_icalls t');
  (* And the repaired binary is analysable. *)
  let cfg = Cfg.build t' ~ep:c.vuln_func in
  check Alcotest.bool "ep reachable after repair" true (Cfg.ep_reachable cfg)

let devirt_preserves_behaviour () =
  let c = Registry.find 15 in
  let observed = Dyncfg.observe c.t ~seeds:[ c.poc ] in
  let t' = Devirt.apply c.t ~observed in
  (* On the observed input, outcome and outputs must match exactly. *)
  let a = Interp.run c.t ~input:c.poc and b = Interp.run t' ~input:c.poc in
  check Alcotest.(list int) "same outputs" a.outputs b.outputs;
  (match (a.outcome, b.outcome) with
  | Interp.Crashed x, Interp.Crashed y ->
      check Alcotest.string "same crash function" x.crash_func y.crash_func
  | Interp.Exited x, Interp.Exited y -> check Alcotest.int "same exit" x y
  | _ -> Alcotest.fail "outcome kind diverged")

let devirt_unobserved_slot_exits () =
  let c = Registry.find 15 in
  (* Observe only the 'E'-object path; a font object then hits the
     unobserved-target exit (97) instead of trapping. *)
  let benign = Octo_formats.Formats.Mpdf.file [] in
  let observed = Dyncfg.observe c.t ~seeds:[ benign ] in
  let t' = Devirt.apply c.t ~observed in
  match (Interp.run t' ~input:c.poc).outcome with
  | Interp.Exited 97 -> ()
  | o -> Alcotest.failf "expected exit 97, got %a" Interp.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Dynamic-CFG pipeline mode *)

let dynamic_cfg_repairs_idx15 () =
  let c = Registry.find 15 in
  let config = { Octopocs.default_config with dynamic_cfg = true } in
  let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
  match r.verdict with
  | Octopocs.Triggered { poc'; _ } ->
      (* poc' must work against the ORIGINAL binary, not the repaired one. *)
      check Alcotest.bool "poc' crashes the original T" true
        (Interp.crash_in (Interp.run c.t ~input:poc') ~funcs:[ c.vuln_func ])
  | v -> Alcotest.failf "expected Triggered, got %s" (Octopocs.verdict_class v)

let static_mode_still_fails_idx15 () =
  let c = Registry.find 15 in
  match (Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc ()).verdict with
  | Octopocs.Failure _ -> ()
  | v -> Alcotest.failf "expected Failure, got %s" (Octopocs.verdict_class v)

let dynamic_mode_harmless_elsewhere () =
  (* Turning the repair on must not change verdicts for pairs whose static
     CFG is fine. *)
  let config = { Octopocs.default_config with dynamic_cfg = true } in
  List.iter
    (fun idx ->
      let c = Registry.find idx in
      let a = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
      let b = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
      check Alcotest.string
        (Printf.sprintf "pair %d unchanged" idx)
        (Octopocs.verdict_class a.verdict)
        (Octopocs.verdict_class b.verdict))
    [ 1; 8; 10; 12 ]

(* ------------------------------------------------------------------ *)
(* Batch verification *)

let run_all_matches_serial_verdicts () =
  (* The parallel batch runner must produce exactly the verdict classes of
     one-at-a-time runs, in input order. *)
  let cases = List.filteri (fun i _ -> i < 5) Registry.all in
  let batch =
    List.map
      (fun (c : Registry.case) ->
        Octopocs.job ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ())
      cases
  in
  let par = Octopocs.run_all ~jobs:4 batch in
  List.iter2
    (fun (c : Registry.case) (label, (r : Octopocs.report)) ->
      check Alcotest.string "labels in order" (string_of_int c.idx) label;
      let serial = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
      check Alcotest.string
        (Printf.sprintf "pair %d verdict" c.idx)
        (Octopocs.verdict_class serial.verdict)
        (Octopocs.verdict_class r.verdict))
    cases par

let qcheck_tests =
  [
    QCheck.Test.make ~name:"Sel eval lies within Sel ival" ~count:200
      QCheck.(pair (array_of_size Gen.(1 -- 8) (int_bound 255)) (int_bound 255))
      (fun (tab, v) ->
        let s = Solve.create () in
        let e = Expr.Sel (tab, Expr.byte 0) in
        let value = Expr.eval (fun _ -> v) e in
        let lo, hi = Solve.ival s e in
        lo <= value && value <= hi);
  ]

let suite =
  [
    tc "sel: constant index folds" sel_folds_constant_index;
    tc "sel: evaluation" sel_eval;
    tc "sel: interval bounds" sel_ival_bounds;
    tc "sel: narrowing pins index" sel_narrowing_pins_index;
    tc "sel: absent value unsat" sel_narrowing_unsat_for_absent;
    tc "sel: solver finds witness" sel_solve_finds_witness;
    tc "executor: symbolic table load builds Sel" executor_builds_sel;
    tc "devirt: detects unresolved icalls" detects_unresolved;
    tc "devirt: removes icalls, CFG builds" devirt_removes_icalls;
    tc "devirt: behaviour preserved on observed input" devirt_preserves_behaviour;
    tc "devirt: unobserved slot exits distinctly" devirt_unobserved_slot_exits;
    tc "pipeline: dynamic CFG repairs Idx-15" dynamic_cfg_repairs_idx15;
    tc "pipeline: static mode reproduces the Failure" static_mode_still_fails_idx15;
    tc "pipeline: dynamic mode harmless elsewhere" dynamic_mode_harmless_elsewhere;
    tc "batch: run_all matches serial verdicts" run_all_matches_serial_verdicts;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
