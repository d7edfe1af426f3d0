(* Tests for CFG recovery, the interprocedural distance map, and the
   dynamic-CFG refinement. *)

open Octo_vm.Isa
open Octo_vm.Asm
module Cfg = Octo_cfg.Cfg
module Dyncfg = Octo_cfg.Dyncfg

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* A three-function program: main -> middle -> target, with a branch in
   main that can skip the call. *)
let chain =
  assemble ~name:"chain" ~entry:"main"
    [
      fn "main" ~params:0
        [
          I (Mov (1, Imm 1));
          I (Jif (Eq, Reg 1, Imm 0, "skip"));
          I (Call ("middle", [], None));
          L "skip";
          I Halt;
        ];
      fn "middle" ~params:0 [ I (Call ("target", [], None)); I (Ret (Imm 0)) ];
      fn "target" ~params:0 [ I (Ret (Imm 0)) ];
    ]

let successors_shapes () =
  let f = func_exn chain "main" in
  check Alcotest.(list int) "jif both" [ 3; 2 ] (Cfg.successors f 1);
  check Alcotest.(list int) "call falls through" [ 3 ] (Cfg.successors f 2);
  check Alcotest.(list int) "halt ends" [] (Cfg.successors f 3)

let callees_listed () =
  let cs = Cfg.callees chain (func_exn chain "main") in
  check Alcotest.(list (pair int string)) "call sites" [ (2, "middle") ] cs

let distance_decreases_toward_ep () =
  let t = Cfg.build chain ~ep:"target" in
  let d_entry = Cfg.distance t "main" 0 in
  let d_call = Cfg.distance t "main" 2 in
  let d_mid = Cfg.distance t "middle" 0 in
  check Alcotest.bool "entry finite" true (d_entry < Cfg.infinity);
  check Alcotest.bool "monotone along path" true (d_entry >= d_call && d_call > d_mid);
  check Alcotest.int "inside ep" 0 (Cfg.distance t "target" 0)

let distance_infinite_off_path () =
  let t = Cfg.build chain ~ep:"target" in
  (* pc 3 is Halt: target unreachable from there. *)
  check Alcotest.int "dead pc" Cfg.infinity (Cfg.distance t "main" 3)

let ep_reachable_works () =
  let t = Cfg.build chain ~ep:"target" in
  check Alcotest.bool "reachable" true (Cfg.ep_reachable t)

let ep_missing_raises () =
  Alcotest.check_raises "missing ep"
    (Cfg.Cfg_error "entry-point function \"nope\" not present in chain") (fun () ->
      ignore (Cfg.build chain ~ep:"nope"))

let dead_clone =
  assemble ~name:"dead" ~entry:"main"
    [
      fn "main" ~params:0 [ I Halt ];
      fn "orphan" ~params:0 [ I (Ret (Imm 0)) ];
    ]

let dead_code_unreachable () =
  let t = Cfg.build dead_clone ~ep:"orphan" in
  check Alcotest.bool "not reachable" false (Cfg.ep_reachable t);
  check Alcotest.bool "never called" false (Cfg.ep_called_somewhere dead_clone ~ep:"orphan")

let ep_called_somewhere_positive () =
  check Alcotest.bool "called" true (Cfg.ep_called_somewhere chain ~ep:"target")

let icall_imm =
  assemble ~name:"ii" ~entry:"main"
    [
      fn "main" ~params:0 [ I (Icall (Imm 1, [], None)); I Halt ];
      fn "h" ~params:0 [ I (Ret (Imm 0)) ];
    ]

let icall_reg =
  assemble ~name:"ir" ~entry:"main"
    [
      fn "main" ~params:0 [ I (Mov (1, Imm 1)); I (Icall (Reg 1, [], None)); I Halt ];
      fn "h" ~params:0 [ I (Ret (Imm 0)) ];
    ]

let icall_imm_resolves () =
  let t = Cfg.build icall_imm ~ep:"h" in
  check Alcotest.bool "reachable through table" true (Cfg.ep_reachable t)

let icall_reg_raises () =
  match Cfg.build icall_reg ~ep:"h" with
  | exception Cfg.Cfg_error _ -> ()
  | _ -> Alcotest.fail "expected Cfg_error"

let icall_reg_allowed_when_permitted () =
  let t = Cfg.build ~allow_unresolved:true icall_reg ~ep:"h" in
  check Alcotest.bool "h not statically reachable" false (Cfg.ep_reachable t)

let reachable_funcs_set () =
  let r = Cfg.reachable_funcs chain in
  check Alcotest.bool "all three" true
    (Hashtbl.mem r "main" && Hashtbl.mem r "middle" && Hashtbl.mem r "target");
  let r2 = Cfg.reachable_funcs dead_clone in
  check Alcotest.bool "orphan excluded" false (Hashtbl.mem r2 "orphan")

let loop_distance_finite () =
  (* A loop before the call must still yield finite distances inside the
     loop body. *)
  let p =
    assemble ~name:"loop" ~entry:"main"
      [
        fn "main" ~params:0
          [
            I (Mov (1, Imm 0));
            L "l";
            I (Jif (Ge, Reg 1, Imm 3, "out"));
            I (Bin (Add, 1, Reg 1, Imm 1));
            I (Jmp "l");
            L "out";
            I (Call ("t", [], None));
            I Halt;
          ];
        fn "t" ~params:0 [ I (Ret (Imm 0)) ];
      ]
  in
  let t = Cfg.build p ~ep:"t" in
  check Alcotest.bool "loop body finite" true (Cfg.distance t "main" 2 < Cfg.infinity)

(* Dynamic CFG *)

let dyn_observe_calls () =
  let o = Dyncfg.observe chain ~seeds:[ "" ] in
  check Alcotest.bool "saw main->middle" true (Dyncfg.saw_call o ~caller:"main" ~callee:"middle");
  check Alcotest.bool "saw middle->target" true
    (Dyncfg.saw_call o ~caller:"middle" ~callee:"target");
  check Alcotest.bool "covered entry" true (Dyncfg.covered o "main" 0)

let dyn_resolves_icall_targets () =
  let o = Dyncfg.observe icall_reg ~seeds:[ "" ] in
  check Alcotest.bool "dynamic edge through icall" true
    (Dyncfg.saw_call o ~caller:"main" ~callee:"h")

let dyn_call_edges_list () =
  let o = Dyncfg.observe chain ~seeds:[ "" ] in
  check Alcotest.int "two edges" 2 (List.length (Dyncfg.call_edges o))

let suite =
  [
    tc "successors: instruction shapes" successors_shapes;
    tc "callees: direct call sites" callees_listed;
    tc "distance: decreases toward ep" distance_decreases_toward_ep;
    tc "distance: infinite off path" distance_infinite_off_path;
    tc "ep: reachable" ep_reachable_works;
    tc "ep: missing function raises" ep_missing_raises;
    tc "ep: dead clone unreachable" dead_code_unreachable;
    tc "ep: called somewhere" ep_called_somewhere_positive;
    tc "icall: immediate resolves" icall_imm_resolves;
    tc "icall: register raises Cfg_error" icall_reg_raises;
    tc "icall: allow_unresolved skips" icall_reg_allowed_when_permitted;
    tc "reachable functions" reachable_funcs_set;
    tc "distance: finite through loop" loop_distance_finite;
    tc "dyncfg: observes call edges" dyn_observe_calls;
    tc "dyncfg: resolves icall dynamically" dyn_resolves_icall_targets;
    tc "dyncfg: edge list" dyn_call_edges_list;
  ]
