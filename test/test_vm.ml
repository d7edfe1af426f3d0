(* Unit tests for the MiniVM substrate: ISA semantics, assembler, memory,
   file table, interpreter and its instrumentation hooks. *)

open Octo_vm
open Octo_vm.Isa
open Octo_vm.Asm

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* ISA arithmetic semantics *)

let binop_wraps () =
  check Alcotest.int "add wraps" 0 (eval_binop Add 0xFFFFFFFF 1);
  check Alcotest.int "sub wraps" 0xFFFFFFFF (eval_binop Sub 0 1);
  check Alcotest.int "mul wraps" 0 (eval_binop Mul 0x10000 0x10000);
  check Alcotest.int "mul wrap x4" 0 (eval_binop Mul (eval_binop Mul 0x8000 0x8000) 4)

let binop_basic () =
  check Alcotest.int "div" 3 (eval_binop Div 10 3);
  check Alcotest.int "mod" 1 (eval_binop Mod 10 3);
  check Alcotest.int "and" 0x0F (eval_binop And 0xFF 0x0F);
  check Alcotest.int "or" 0xFF (eval_binop Or 0xF0 0x0F);
  check Alcotest.int "xor" 0xFF (eval_binop Xor 0xF0 0x0F);
  check Alcotest.int "shl" 0x100 (eval_binop Shl 1 8);
  check Alcotest.int "shr" 1 (eval_binop Shr 0x100 8)

let binop_div_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (eval_binop Div 1 0));
  Alcotest.check_raises "mod by zero" Division_by_zero (fun () -> ignore (eval_binop Mod 1 0))

let shift_masks_count () =
  check Alcotest.int "shl count mod 32" 2 (eval_binop Shl 1 33)

let relop_unsigned () =
  (* -1 masks to 0xFFFFFFFF, which is the largest unsigned value. *)
  check Alcotest.bool "unsigned lt" false (eval_relop Lt (-1) 1);
  check Alcotest.bool "unsigned gt" true (eval_relop Gt (-1) 1);
  check Alcotest.bool "eq masked" true (eval_relop Eq (-1) 0xFFFFFFFF)

(* ------------------------------------------------------------------ *)
(* Assembler *)

let asm_simple () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [ fn "main" ~params:0 [ I (Mov (0, Imm 7)); I (Sys (Exit (Reg 0))) ] ]
  in
  check Alcotest.int "one function" 1 (Hashtbl.length p.funcs);
  check Alcotest.int "two instructions" 2 (Asm.size_of_code p)

let asm_labels_resolve () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0
          [ I (Jmp "end"); I (Sys (Exit (Imm 1))); L "end"; I (Sys (Exit (Imm 0))) ];
      ]
  in
  match (func_exn p "main").code.(0) with
  | Jmp 2 -> ()
  | i -> Alcotest.failf "unexpected %a" pp_instr i

let asm_duplicate_label () =
  Alcotest.check_raises "dup label" (Asm_error "duplicate label \"x\"") (fun () ->
      ignore
        (assemble ~name:"t" ~entry:"main" [ fn "main" ~params:0 [ L "x"; L "x"; I Halt ] ]))

let asm_unknown_label () =
  Alcotest.check_raises "unknown" (Asm_error "unknown label \"nope\"") (fun () ->
      ignore (assemble ~name:"t" ~entry:"main" [ fn "main" ~params:0 [ I (Jmp "nope") ] ]))

let asm_unknown_entry () =
  Alcotest.check_raises "entry" (Asm_error "entry function \"main\" not defined") (fun () ->
      ignore (assemble ~name:"t" ~entry:"main" [ fn "other" ~params:0 [ I Halt ] ]))

let asm_call_arity_checked () =
  Alcotest.check_raises "arity"
    (Asm_error "call to \"f\" with 1 args, expected 2 (in main)")
    (fun () ->
      ignore
        (assemble ~name:"t" ~entry:"main"
           [
             fn "main" ~params:0 [ I (Call ("f", [ Imm 1 ], None)); I Halt ];
             fn "f" ~params:2 [ I (Ret (Imm 0)) ];
           ]))

let asm_undefined_callee () =
  Alcotest.check_raises "undefined"
    (Asm_error "call to undefined function \"g\" (in main)")
    (fun () ->
      ignore
        (assemble ~name:"t" ~entry:"main"
           [ fn "main" ~params:0 [ I (Call ("g", [], None)) ] ]))

let asm_data_symbols () =
  let p =
    assemble ~name:"t" ~entry:"main"
      ~data:[ ("a", "hi"); ("b", "world") ]
      [ fn "main" ~params:0 [ I (Mov (0, Sym "b")); I Halt ] ]
  in
  (match (func_exn p "main").code.(0) with
  | Mov (0, Imm addr) -> check Alcotest.int "b after a" (Asm.data_base + 2) addr
  | i -> Alcotest.failf "unexpected %a" pp_instr i);
  check Alcotest.int "data entries" 2 (List.length p.data)

let asm_unknown_symbol () =
  Alcotest.check_raises "unknown sym" (Asm_error "unknown data symbol \"nope\"") (fun () ->
      ignore
        (assemble ~name:"t" ~entry:"main" [ fn "main" ~params:0 [ I (Mov (0, Sym "nope")) ] ]))

(* ------------------------------------------------------------------ *)
(* Memory *)

let mem_alloc_bounds () =
  let m = Mem.create () in
  let b = Mem.alloc m 4 in
  Mem.write8 m (b + 3) 0xAB;
  check Alcotest.int "read back" 0xAB (Mem.read8 m (b + 3));
  Alcotest.check_raises "oob write faults" (Mem.Fault (Mem.Oob_write (b + 4))) (fun () ->
      Mem.write8 m (b + 4) 1)

let mem_alloc_padding () =
  let m = Mem.create () in
  let a = Mem.alloc m 8 in
  let b = Mem.alloc m 8 in
  check Alcotest.bool "allocations padded apart" true (b - a > 8)

let mem_null_deref () =
  let m = Mem.create () in
  Alcotest.check_raises "null read" (Mem.Fault (Mem.Null_deref 4)) (fun () ->
      ignore (Mem.read8 m 4))

let mem_rodata_protected () =
  let m = Mem.create () in
  Mem.load_rodata m [ ("s", 0x1000, "ro") ];
  check Alcotest.int "rodata readable" (Char.code 'r') (Mem.read8 m 0x1000);
  Alcotest.check_raises "rodata write faults" (Mem.Fault (Mem.Write_to_rodata 0x1000))
    (fun () -> Mem.write8 m 0x1000 0)

let mem_word_roundtrip () =
  let m = Mem.create () in
  let b = Mem.alloc m 8 in
  Mem.write_word m b 0xDEADBEEF;
  check Alcotest.int "word roundtrip" 0xDEADBEEF (Mem.read_word m b);
  check Alcotest.int "little endian low byte" 0xEF (Mem.read8 m b)

let mem_zero_alloc () =
  let m = Mem.create () in
  let b = Mem.alloc m 0 in
  Alcotest.check_raises "empty region faults" (Mem.Fault (Mem.Oob_write b)) (fun () ->
      Mem.write8 m b 1)

(* ------------------------------------------------------------------ *)
(* Vfile *)

let vfile_sequential () =
  let f = Vfile.create "hello" in
  let fd = Vfile.open_ f in
  let off, s = Vfile.read f fd 3 in
  check Alcotest.int "first offset" 0 off;
  check Alcotest.string "first bytes" "hel" s;
  let _, s2 = Vfile.read f fd 10 in
  check Alcotest.string "short read at EOF" "lo" s2;
  let _, s3 = Vfile.read f fd 1 in
  check Alcotest.string "EOF reads empty" "" s3

let vfile_seek_tell () =
  let f = Vfile.create "abcdef" in
  let fd = Vfile.open_ f in
  Vfile.seek f fd 4;
  check Alcotest.int "tell after seek" 4 (Vfile.tell f fd);
  let _, s = Vfile.read f fd 2 in
  check Alcotest.string "read at pos" "ef" s

let vfile_seek_past_eof () =
  let f = Vfile.create "ab" in
  let fd = Vfile.open_ f in
  Vfile.seek f fd 100;
  let _, s = Vfile.read f fd 4 in
  check Alcotest.string "reads empty" "" s

let vfile_two_handles () =
  let f = Vfile.create "xyz" in
  let a = Vfile.open_ f and b = Vfile.open_ f in
  ignore (Vfile.read f a 2);
  check Alcotest.int "independent positions" 0 (Vfile.tell f b)

let vfile_bad_fd () =
  let f = Vfile.create "" in
  Alcotest.check_raises "bad fd" (Vfile.Bad_fd 99) (fun () -> ignore (Vfile.tell f 99))

(* ------------------------------------------------------------------ *)
(* Interpreter *)

let prog items = assemble ~name:"t" ~entry:"main" [ fn "main" ~params:0 items ]

let run ?(input = "") p = Interp.run p ~input

let exit_code r = match r.Interp.outcome with Interp.Exited c -> c | Interp.Crashed _ -> -1

let interp_arith () =
  let p =
    prog [ I (Mov (1, Imm 6)); I (Bin (Mul, 2, Reg 1, Imm 7)); I (Sys (Exit (Reg 2))) ]
  in
  check Alcotest.int "6*7" 42 (exit_code (run p))

let interp_branching () =
  let p =
    prog
      [
        I (Mov (1, Imm 5));
        I (Jif (Lt, Reg 1, Imm 10, "small"));
        I (Sys (Exit (Imm 1)));
        L "small";
        I (Sys (Exit (Imm 0)));
      ]
  in
  check Alcotest.int "takes branch" 0 (exit_code (run p))

let interp_loop () =
  (* sum 1..10 *)
  let p =
    prog
      [
        I (Mov (1, Imm 0));
        I (Mov (2, Imm 1));
        L "l";
        I (Jif (Gt, Reg 2, Imm 10, "done"));
        I (Bin (Add, 1, Reg 1, Reg 2));
        I (Bin (Add, 2, Reg 2, Imm 1));
        I (Jmp "l");
        L "done";
        I (Sys (Exit (Reg 1)));
      ]
  in
  check Alcotest.int "sum" 55 (exit_code (run p))

let interp_call_ret () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0 [ I (Call ("double", [ Imm 21 ], Some 1)); I (Sys (Exit (Reg 1))) ];
        fn "double" ~params:1 [ I (Bin (Add, 1, Reg 0, Reg 0)); I (Ret (Reg 1)) ];
      ]
  in
  check Alcotest.int "call result" 42 (exit_code (run p))

let interp_recursion () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0 [ I (Call ("fact", [ Imm 6 ], Some 1)); I (Sys (Exit (Reg 1))) ];
        fn "fact" ~params:1
          [
            I (Jif (Le, Reg 0, Imm 1, "base"));
            I (Bin (Sub, 1, Reg 0, Imm 1));
            I (Call ("fact", [ Reg 1 ], Some 2));
            I (Bin (Mul, 3, Reg 0, Reg 2));
            I (Ret (Reg 3));
            L "base";
            I (Ret (Imm 1));
          ];
      ]
  in
  check Alcotest.int "6!" 720 (exit_code (run p))

let interp_fall_off_returns_zero () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0 [ I (Call ("f", [], Some 1)); I (Sys (Exit (Reg 1))) ];
        fn "f" ~params:0 [ I (Mov (0, Imm 9)) ];
      ]
  in
  check Alcotest.int "implicit ret 0" 0 (exit_code (run p))

let interp_read_input () =
  let p =
    prog
      [
        I (Sys (Open 1));
        I (Sys (Alloc (2, Imm 8)));
        I (Sys (Read (3, Reg 1, Reg 2, Imm 2)));
        I (Load8 (4, Reg 2, Imm 1));
        I (Sys (Exit (Reg 4)));
      ]
  in
  check Alcotest.int "second byte" Char.(code 'B') (exit_code (run ~input:"AB" p))

let interp_mmap () =
  let p =
    prog [ I (Sys (Mmap (1, Imm 0))); I (Load8 (2, Reg 1, Imm 3)); I (Sys (Exit (Reg 2))) ]
  in
  check Alcotest.int "mapped byte" Char.(code 'D') (exit_code (run ~input:"ABCD" p))

let interp_fsize_tell_seek () =
  let p =
    prog
      [
        I (Sys (Open 1));
        I (Sys (Fsize (2, Reg 1)));
        I (Sys (Seek (Reg 1, Imm 2)));
        I (Sys (Tell (3, Reg 1)));
        I (Bin (Mul, 4, Reg 2, Imm 10));
        I (Bin (Add, 4, Reg 4, Reg 3));
        I (Sys (Exit (Reg 4)));
      ]
  in
  check Alcotest.int "size*10+pos" 52 (exit_code (run ~input:"hello" p))

let interp_crash_backtrace () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0 [ I (Call ("inner", [], None)); I Halt ];
        fn "inner" ~params:0 [ I (Store8 (Imm 4, Imm 0, Imm 1)) ];
      ]
  in
  match (run p).outcome with
  | Interp.Crashed c ->
      check Alcotest.(list string) "backtrace" [ "main"; "inner" ] c.backtrace;
      check Alcotest.string "crash func" "inner" c.crash_func;
      (match c.fault with Mem.Null_deref _ -> () | f -> Alcotest.failf "fault %a" Mem.pp_fault f)
  | Interp.Exited _ -> Alcotest.fail "expected crash"

let interp_hang_budget () =
  let p = prog [ L "l"; I (Jmp "l") ] in
  match (Interp.run ~max_steps:1000 p ~input:"").outcome with
  | Interp.Crashed { fault = Mem.Hang; _ } -> ()
  | o -> Alcotest.failf "expected hang, got %a" Interp.pp_outcome o

let interp_div_zero_fault () =
  let p = prog [ I (Mov (1, Imm 0)); I (Bin (Div, 2, Imm 1, Reg 1)); I Halt ] in
  match (run p).outcome with
  | Interp.Crashed { fault = Mem.Div_by_zero; _ } -> ()
  | o -> Alcotest.failf "expected div0, got %a" Interp.pp_outcome o

let interp_emit_outputs () =
  let p = prog [ I (Sys (Emit (Imm 1))); I (Sys (Emit (Imm 2))); I (Sys (Exit (Imm 0))) ] in
  check Alcotest.(list int) "outputs in order" [ 1; 2 ] (run p).outputs

let interp_icall () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0 [ I (Icall (Imm 1, [ Imm 20 ], Some 1)); I (Sys (Exit (Reg 1))) ];
        fn "h" ~params:1 [ I (Bin (Add, 1, Reg 0, Imm 2)); I (Ret (Reg 1)) ];
      ]
  in
  check Alcotest.int "through table" 22 (exit_code (run p))

let interp_icall_invalid_slot () =
  let p = prog [ I (Icall (Imm 99, [], None)); I Halt ] in
  match (run p).outcome with
  | Interp.Crashed { fault = Mem.Bad_icall 99; _ } -> ()
  | o -> Alcotest.failf "expected bad icall, got %a" Interp.pp_outcome o

let hooks_input_bytes () =
  let seen = ref [] in
  let hooks =
    { Interp.no_hooks with
      on_input_bytes = (fun ~addr ~file_off ~len -> seen := (addr, file_off, len) :: !seen) }
  in
  let p =
    prog
      [
        I (Sys (Open 1));
        I (Sys (Alloc (2, Imm 8)));
        I (Sys (Read (3, Reg 1, Reg 2, Imm 2)));
        I (Sys (Read (3, Reg 1, Reg 2, Imm 2)));
        I Halt;
      ]
  in
  ignore (Interp.run ~hooks p ~input:"abcd");
  check Alcotest.int "two read events" 2 (List.length !seen);
  let offs = List.rev_map (fun (_, o, _) -> o) !seen in
  check Alcotest.(list int) "file offsets advance" [ 0; 2 ] offs

let hooks_access_dataflow () =
  (* A mov from register to register reports the source as read and the
     destination as written. *)
  let events = ref [] in
  let hooks = { Interp.no_hooks with on_access = (fun a -> events := a :: !events) } in
  let p = prog [ I (Mov (1, Imm 3)); I (Mov (2, Reg 1)); I Halt ] in
  ignore (Interp.run ~hooks p ~input:"");
  let second = List.nth (List.rev !events) 1 in
  check Alcotest.int "one read" 1 (List.length second.Interp.reads);
  (match second.Interp.reads with
  | [ Interp.OReg (_, 1) ] -> ()
  | _ -> Alcotest.fail "expected read of r1");
  match second.Interp.writes with
  | [ Interp.OReg (_, 2) ] -> ()
  | _ -> Alcotest.fail "expected write of r2"

let hooks_call_args () =
  let calls = ref [] in
  let hooks =
    { Interp.no_hooks with
      on_call = (fun ~fname ~frame_id:_ ~args -> calls := (fname, args) :: !calls) }
  in
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0 [ I (Call ("g", [ Imm 4; Imm 5 ], None)); I Halt ];
        fn "g" ~params:2 [ I (Ret (Imm 0)) ];
      ]
  in
  ignore (Interp.run ~hooks p ~input:"");
  check Alcotest.(list (pair string (list int))) "call observed" [ ("g", [ 4; 5 ]) ] !calls

let hooks_edges_on_branch () =
  let edges = ref 0 in
  let hooks = { Interp.no_hooks with on_edge = (fun _ _ _ -> incr edges) } in
  let p = prog [ I (Jif (Eq, Imm 1, Imm 1, "x")); L "x"; I Halt ] in
  ignore (Interp.run ~hooks p ~input:"");
  check Alcotest.bool "edge fired" true (!edges >= 1)

(* ------------------------------------------------------------------ *)
(* Differential testing: compiled engine vs the reference interpreter.

   [Interp.run] executes direct-threaded closures ({!Compile}); the original
   decode-per-step loop survives as [Interp.run_reference], the executable
   specification.  Random structured programs are run through both engines
   and everything observable must agree: outcome (including crash site and
   backtrace), outputs, step count, every instrumentation hook stream, and
   fault-injection behavior. *)

(* A statement AST that lowers to assemblable, terminating MiniVM code.
   Loops are counter-bounded (register 8, never nested), yet the programs
   still exercise crash paths: wild stores past the 16-byte buffer and
   divisions by possibly-zero data registers. *)
type gstmt =
  | G_arith of int * int * int * int  (* binop index, dst, src, src *)
  | G_read of int                     (* next input byte -> data reg *)
  | G_emit of int
  | G_if of relop * int * int * gstmt list * gstmt list
  | G_loop of int * gstmt list        (* fixed iteration count *)
  | G_store of int * int              (* mem8[buf+off] <- reg; off may be oob *)
  | G_load of int * int
  | G_call of int                     (* d <- h(d): exercises frames *)

let all_binops = [| Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr |]

(* Data registers are r4-r7; r1 = fd, r2 = buffer, r3 = read status, r8 =
   loop counter. *)
let dreg i = 4 + i

let lower_body stmts =
  let lbl = ref 0 in
  let fresh () = incr lbl; Printf.sprintf "L%d" !lbl in
  let rec stmt = function
    | G_arith (o, d, a, b) ->
        [ I (Bin (all_binops.(o), dreg d, Reg (dreg a), Reg (dreg b))) ]
    | G_read d ->
        [ I (Sys (Read (3, Reg 1, Reg 2, Imm 1))); I (Load8 (dreg d, Reg 2, Imm 0)) ]
    | G_emit d -> [ I (Sys (Emit (Reg (dreg d)))) ]
    | G_if (r, a, b, th, el) ->
        let lt = fresh () and le = fresh () in
        [ I (Jif (r, Reg (dreg a), Reg (dreg b), lt)) ]
        @ List.concat_map stmt el
        @ [ I (Jmp le); L lt ]
        @ List.concat_map stmt th
        @ [ L le ]
    | G_loop (n, body) ->
        let head = fresh () and stop = fresh () in
        [ I (Mov (8, Imm n)); L head; I (Jif (Eq, Reg 8, Imm 0, stop)) ]
        @ List.concat_map stmt body
        @ [ I (Bin (Sub, 8, Reg 8, Imm 1)); I (Jmp head); L stop ]
    | G_store (d, off) -> [ I (Store8 (Reg 2, Imm off, Reg (dreg d))) ]
    | G_load (d, off) -> [ I (Load8 (dreg d, Reg 2, Imm off)) ]
    | G_call d -> [ I (Call ("h", [ Reg (dreg d) ], Some (dreg d))) ]
  in
  List.concat_map stmt stmts

let helper_h =
  fn "h" ~params:1
    [
      I (Bin (Mul, 2, Reg 1, Imm 2));
      I (Bin (Add, 1, Reg 2, Imm 1));
      I (Sys (Emit (Reg 1)));
      I (Ret (Reg 1));
    ]

let init_data_regs = List.init 4 (fun i -> I (Mov (dreg i, Imm (i + 1))))

let lower stmts =
  assemble ~name:"t" ~entry:"main"
    [
      fn "main" ~params:0
        ([ I (Sys (Open 1)); I (Sys (Alloc (2, Imm 16))) ]
        @ init_data_regs
        @ lower_body stmts
        @ [ I (Sys (Emit (Reg 4))); I Halt ]);
      helper_h;
    ]

let gen_stmts =
  let open QCheck.Gen in
  let reg = int_range 0 3 in
  let base =
    frequency
      [
        (3, map3 (fun o d (a, b) -> G_arith (o, d, a, b)) (int_range 0 9) reg (pair reg reg));
        (2, map (fun d -> G_read d) reg);
        (2, map (fun d -> G_emit d) reg);
        (1, map (fun d -> G_call d) reg);
        (1, map2 (fun d off -> G_store (d, off)) reg (int_range 0 20));
        (1, map2 (fun d off -> G_load (d, off)) reg (int_range 0 20));
      ]
  in
  let block = list_size (int_range 1 4) base in
  let stmt =
    frequency
      [
        (6, base);
        ( 1,
          map3
            (fun r (a, b) (t, e) -> G_if (r, a, b, t, e))
            (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ])
            (pair reg reg) (pair block block) );
        (1, map2 (fun n body -> G_loop (n, body)) (int_range 1 4) block);
      ]
  in
  list_size (int_range 1 8) stmt

let arb_diff =
  QCheck.make
    ~print:(fun (stmts, input, seed) ->
      Printf.sprintf "%d stmts, input=%S, seed=%d" (List.length stmts) input seed)
    QCheck.Gen.(
      triple gen_stmts
        (string_size ~gen:printable (int_range 0 12))
        (int_bound 10_000))

(* Serialize every hook event into one stream; the two engines must produce
   identical bytes. *)
let record_hooks buf =
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let str_obj = function
    | Interp.OReg (f, r) -> Printf.sprintf "R%d.%d" f r
    | Interp.OMem a -> Printf.sprintf "M%d" a
  in
  let objs os = String.concat ";" (List.map str_obj os) in
  {
    Interp.on_access = (fun a -> add "A[%s]<-[%s]" (objs a.Interp.writes) (objs a.Interp.reads));
    on_input_bytes = (fun ~addr ~file_off ~len -> add "I%d@%d+%d" addr file_off len);
    on_call =
      (fun ~fname ~frame_id ~args ->
        add "C%s#%d(%s)" fname frame_id (String.concat "," (List.map string_of_int args)));
    on_ret = (fun f -> add "r%s" f);
    on_edge = (fun f a b -> add "E%s:%d->%d" f a b);
    on_step = (fun f pc -> add "S%s:%d" f pc);
    on_seek = (fun ~fd ~pos -> add "K%d@%d" fd pos);
    checkpoint = None;
  }

let engines_agree (stmts, input, _seed) =
  let p = lower stmts in
  let b1 = Buffer.create 256 and b2 = Buffer.create 256 in
  let r1 = Interp.run ~hooks:(record_hooks b1) p ~input in
  let r2 = Interp.run_reference ~hooks:(record_hooks b2) p ~input in
  r1 = r2 && String.equal (Buffer.contents b1) (Buffer.contents b2)

let engines_agree_under_injection (stmts, input, seed) =
  (* Each engine gets its own injector built from the same seed: the draws
     happen once per executed syscall, so an Injected fault must fire at
     the same point in both engines (or in neither). *)
  let p = lower stmts in
  let run engine =
    let inject = Octo_util.Faultinject.create ~rate:0.2 ~seed () in
    match engine ~inject p ~input with
    | (r : Interp.result) -> Ok r
    | exception Octo_util.Faultinject.Injected m -> Error m
  in
  run (fun ~inject p ~input -> Interp.run ~inject p ~input)
  = run (fun ~inject p ~input -> Interp.run_reference ~inject p ~input)

let compile_cache_no_stale_closures () =
  (* Two programs with identical shape but different bodies must compile to
     different digests; a digest-keyed cache can therefore never replay the
     old closures for the mutated program. *)
  let mk k = prog [ I (Sys (Emit (Imm k))); I Halt ] in
  let p1 = mk 1 and p2 = mk 2 in
  check Alcotest.bool "digests differ" true
    (Compile.program_digest p1 <> Compile.program_digest p2);
  check (Alcotest.list Alcotest.int) "p1 outputs" [ 1 ] (Interp.run p1 ~input:"").outputs;
  check (Alcotest.list Alcotest.int) "mutated outputs" [ 2 ] (Interp.run p2 ~input:"").outputs;
  check (Alcotest.list Alcotest.int) "p1 unchanged after p2" [ 1 ]
    (Interp.run p1 ~input:"").outputs

(* ------------------------------------------------------------------ *)
(* Hang cycles: the compiled engine proves a budget-bound run periodic and
   skips whole periods; the result must still equal the reference
   interpreter's full-length run. *)

let same_run (a : Interp.result) (b : Interp.result) =
  a.outcome = b.outcome && a.steps = b.steps && a.outputs = b.outputs

let cycle_str (r : Interp.result) =
  match r.cycle with Some (m, l) -> Printf.sprintf "(%d, %d)" m l | None -> "none"

(* A hook consumer that opts into skipping: it remembers which (function,
   pc) pairs executed and the last access event, a state that converges
   once a run is in a cycle. *)
let converging_consumer () =
  let seen = Hashtbl.create 64 and last = ref None in
  let hooks =
    {
      Interp.no_hooks with
      on_step = (fun f pc -> Hashtbl.replace seen (f, pc) ());
      on_access = (fun a -> last := Some a);
      checkpoint =
        Some
          (fun () ->
            let seen0 = Hashtbl.length seen and last0 = !last in
            fun () -> Hashtbl.length seen = seen0 && !last = last0);
    }
  in
  let state () =
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []), !last)
  in
  (hooks, state)

(* A body without emits and helper calls (the helper emits too): every
   emit grows the outputs, so no state with one in the loop ever recurs. *)
let rec quiet stmts =
  List.filter_map
    (function
      | G_emit _ | G_call _ -> None
      | G_if (r, a, b, th, el) -> Some (G_if (r, a, b, quiet th, quiet el))
      | G_loop (n, body) -> Some (G_loop (n, quiet body))
      | st -> Some st)
    stmts

(* [lower_hang stmts ~forever ~pad ~phase] wraps a random body in an outer
   loop that resets the data registers and rewinds the file each
   iteration, so the machine state often recurs.  [pad] turns of a spin
   loop (three steps each) stretch one iteration; a phase register
   counting mod [phase] (a power of two, branch-free) multiplies the period
   by [phase] without changing its odd part, so periods far past the
   sampling stride still get proven.  A non-forever loop counts down r10
   and exits. *)
let lower_hang stmts ~forever ~pad ~phase =
  assemble ~name:"hang" ~entry:"main"
    [
      fn "main" ~params:0
        ([ I (Sys (Open 1)); I (Sys (Alloc (2, Imm 16))); I (Mov (10, Imm 3)); L "outer" ]
        @ init_data_regs
        @ [ I (Sys (Seek (Reg 1, Imm 0))) ]
        @ lower_body stmts
        @ [
            I (Mov (9, Imm pad));
            L "spin";
            I (Jif (Eq, Reg 9, Imm 0, "spun"));
            I (Bin (Sub, 9, Reg 9, Imm 1));
            I (Jmp "spin");
            L "spun";
            I (Bin (Add, 11, Reg 11, Imm 1));
            I (Bin (And, 11, Reg 11, Imm (phase - 1)));
          ]
        @ (if forever then [ I (Jmp "outer") ]
           else [ I (Bin (Sub, 10, Reg 10, Imm 1)); I (Jif (Ne, Reg 10, Imm 0, "outer")) ])
        @ [ I (Sys (Emit (Reg 4))); I Halt ]);
      helper_h;
    ]

type hang_case = {
  stmts : gstmt list;
  input : string;
  forever : bool;
  pad : int;
  phase : int;
  max_steps : int;
}

let arb_hang =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "%d stmts, input=%S, forever=%b, pad=%d, phase=%d, max_steps=%d"
        (List.length c.stmts) c.input c.forever c.pad c.phase c.max_steps)
    QCheck.Gen.(
      let* stmts = gen_stmts in
      let* stmts = frequency [ (3, return (quiet stmts)); (1, return stmts) ] in
      let* input = string_size ~gen:printable (int_range 0 12) in
      let* forever = frequency [ (4, return true); (1, return false) ] in
      let* pad = frequency [ (3, return 0); (1, int_range 1 40); (1, int_range 600 1500) ] in
      let* phase = oneofl [ 1; 1; 16; 64; 256 ] in
      let* max_steps = int_range 4096 60_000 in
      return { stmts; input; forever; pad; phase; max_steps })

let hang_engines_agree { stmts; input; forever; pad; phase; max_steps } =
  let p = lower_hang stmts ~forever ~pad ~phase in
  let reference = Interp.run_reference ~max_steps p ~input in
  let fast = Interp.run ~max_steps p ~input in
  let hooks, state = converging_consumer () in
  let hooked = Interp.run ~hooks ~max_steps p ~input in
  let ref_hooks, ref_state = converging_consumer () in
  let hooked_ref = Interp.run_reference ~hooks:ref_hooks ~max_steps p ~input in
  same_run fast reference && same_run hooked hooked_ref && state () = ref_state ()

(* Runs [p] on both engines under [max_steps] and checks they agree;
   returns the compiled result. *)
let agree ?hooks ?inject ~max_steps p =
  let fast = Interp.run ?hooks ?inject ~max_steps p ~input:"" in
  let reference = Interp.run_reference ~max_steps p ~input:"" in
  check Alcotest.bool "compiled run equals the reference" true (same_run fast reference);
  fast

let expect_no_skip what (r : Interp.result) =
  check Alcotest.string (what ^ ": no cycle skip") "none" (cycle_str r)

let hang_skip_plain_loop () =
  let p = prog [ L "l"; I (Jmp "l") ] in
  let r = agree ~max_steps:400_000 p in
  check Alcotest.int "steps" 400_000 r.steps;
  check Alcotest.bool "cycle proven" true (r.cycle <> None);
  (* A consumer that opts in skips too, and ends in the reference's state. *)
  let hooks, state = converging_consumer () in
  check Alcotest.bool "opted-in consumer skips" true
    ((agree ~hooks ~max_steps:400_000 p).cycle <> None);
  let ref_hooks, ref_state = converging_consumer () in
  ignore (Interp.run_reference ~hooks:ref_hooks ~max_steps:400_000 p ~input:"");
  check Alcotest.bool "consumer state as after the full run" true (state () = ref_state ())

let hang_emit_loop_no_skip () =
  let p = prog [ L "l"; I (Sys (Emit (Imm 7))); I (Jmp "l") ] in
  let r = agree ~max_steps:20_000 p in
  check Alcotest.int "every output kept" 10_000 (List.length r.outputs);
  expect_no_skip "emit loop" r

let hang_alloc_loop_no_skip () =
  let p = prog [ L "l"; I (Sys (Alloc (1, Imm 4))); I (Mov (1, Imm 0)); I (Jmp "l") ] in
  expect_no_skip "alloc loop" (agree ~max_steps:20_000 p)

(* Counters that live only in memory or only in a file position.  Each
   iteration is eight steps, so every sample lands on the same pc, where
   the registers have been reset: only the counter tells the samples
   apart.  The loop exits after 40 000 iterations (320 000 steps), so
   mistaking the repeating registers and pcs for a cycle would turn the
   exit into a hang. *)
let hang_counter_loops_exit () =
  let counts_to_exit setup ~load ~store =
    let p =
      prog
        ([ setup; L "l"; load; I (Bin (Add, 3, Reg 3, Imm 1)); store;
           I (Jif (Eq, Reg 3, Imm 40_000, "done"));
           I (Mov (3, Imm 0)); I (Mov (4, Imm 0)); I (Mov (4, Imm 0)); I (Jmp "l");
           L "done"; I (Sys (Exit (Imm 7))) ])
    in
    match (agree ~max_steps:400_000 p).outcome with
    | Interp.Exited 7 -> ()
    | o -> Alcotest.failf "expected exit 7, got %a" Interp.pp_outcome o
  in
  counts_to_exit (I (Sys (Alloc (2, Imm 4)))) ~load:(I (LoadW (3, Reg 2, Imm 0)))
    ~store:(I (StoreW (Reg 2, Imm 0, Reg 3)));
  counts_to_exit (I (Sys (Open 1))) ~load:(I (Sys (Tell (3, Reg 1))))
    ~store:(I (Sys (Seek (Reg 1, Reg 3))))

(* A consumer whose own state never repeats is never skipped, even though
   the machine is in a cycle. *)
let hang_changing_consumer_no_skip () =
  let n = ref 0 in
  let hooks =
    {
      Interp.no_hooks with
      on_step = (fun _ _ -> incr n);
      checkpoint = Some (fun () -> let n0 = !n in fun () -> !n = n0);
    }
  in
  expect_no_skip "counting consumer"
    (agree ~hooks ~max_steps:50_000 (prog [ L "l"; I (Jmp "l") ]));
  check Alcotest.int "every step event delivered" 50_000 !n

(* The only changing state is one heap byte counting mod 256: registers
   are identical at every iteration boundary, so the true cycle is 256
   iterations (1280 steps).  A detected period must be a multiple of it. *)
let hang_mem_counter_full_period () =
  let p =
    prog
      [
        I (Sys (Alloc (2, Imm 4)));
        L "l";
        I (Load8 (3, Reg 2, Imm 0));
        I (Bin (Add, 3, Reg 3, Imm 1));
        I (Store8 (Reg 2, Imm 0, Reg 3));
        I (Mov (3, Imm 0));
        I (Jmp "l");
      ]
  in
  List.iter
    (fun max_steps ->
      let r = agree ~max_steps p in
      match r.cycle with
      | Some (_, l) -> check Alcotest.int "period multiple of 256 iterations" 0 (l mod 1280)
      | None -> ())
    [ 9_000; 60_000; 400_001 ];
  check Alcotest.bool "cycle proven under the default budget" true
    ((agree ~max_steps:400_000 p).cycle <> None)

(* A 3072-step period: longer than the sampling stride and not dividing
   it, so the first provable repeat is at lcm(3072, 2048) = 6144 steps. *)
let hang_long_period () =
  let p =
    prog
      [
        L "l";
        I (Mov (9, Imm 1023));
        L "s";
        I (Jif (Eq, Reg 9, Imm 0, "e"));
        I (Bin (Sub, 9, Reg 9, Imm 1));
        I (Jmp "s");
        L "e";
        I (Jmp "l");
      ]
  in
  match (agree ~max_steps:100_003 p).cycle with
  | Some (_, l) -> check Alcotest.int "period multiple of 3072" 0 (l mod 3072)
  | None -> Alcotest.fail "expected a proven cycle"

(* The differential property is only as strong as the share of its cases
   that actually skip: pin that share on a fixed generator seed. *)
let hang_property_exercises_skipping () =
  let rand = Random.State.make [| 2048 |] in
  let skipped = ref 0 in
  for _ = 1 to 300 do
    let c = QCheck.Gen.generate1 ~rand (QCheck.get_gen arb_hang) in
    let p = lower_hang c.stmts ~forever:c.forever ~pad:c.pad ~phase:c.phase in
    if (Interp.run ~max_steps:c.max_steps p ~input:c.input).cycle <> None then incr skipped
  done;
  check Alcotest.bool (Printf.sprintf "%d of 300 cases skip (want >= 10)" !skipped) true
    (!skipped >= 10)

(* Each iteration calls a helper: frame ids grow, which only hooked runs
   can observe. *)
let hang_call_loop () =
  let p =
    assemble ~name:"t" ~entry:"main"
      [
        fn "main" ~params:0 [ L "l"; I (Call ("h", [], None)); I (Jmp "l") ];
        fn "h" ~params:0 [ I (Ret (Imm 0)) ];
      ]
  in
  let plain = agree ~max_steps:100_000 p in
  check Alcotest.bool "unhooked run skips" true (plain.cycle <> None);
  let hooks = { Interp.no_hooks with checkpoint = Some (fun () () -> true) } in
  expect_no_skip "hooked call loop" (agree ~hooks ~max_steps:100_000 p)

let hang_no_skip_without_checkpoint () =
  let n = ref 0 in
  let hooks = { Interp.no_hooks with on_step = (fun _ _ -> incr n) } in
  let r = agree ~hooks ~max_steps:50_000 (prog [ L "l"; I (Jmp "l") ]) in
  expect_no_skip "hooked without checkpoint" r;
  check Alcotest.int "every step event delivered" 50_000 !n

let hang_no_skip_under_injection () =
  let inject = Octo_util.Faultinject.create ~rate:0.0 ~seed:1 () in
  expect_no_skip "fault injection on"
    (agree ~inject ~max_steps:50_000 (prog [ L "l"; I (Jmp "l") ]))

let qcheck_tests =
  [
    QCheck.Test.make ~count:300 ~name:"compiled engine ≡ reference interpreter" arb_diff
      engines_agree;
    QCheck.Test.make ~count:150 ~name:"compiled ≡ reference under fault injection" arb_diff
      engines_agree_under_injection;
    QCheck.Test.make ~name:"binop result always fits 32 bits"
      QCheck.(triple (int_bound 9) int int)
      (fun (opi, a, b) ->
        let op = [| Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr |].(opi) in
        try
          let r = eval_binop op a b in
          r >= 0 && r <= 0xFFFFFFFF
        with Division_by_zero -> true);
    QCheck.Test.make ~name:"relop total order consistency"
      QCheck.(pair int int)
      (fun (a, b) ->
        eval_relop Le a b = (eval_relop Lt a b || eval_relop Eq a b)
        && eval_relop Ge a b = not (eval_relop Lt a b));
  ]

let suite =
  [
    tc "isa: binop wraps at 32 bits" binop_wraps;
    tc "isa: binop basics" binop_basic;
    tc "isa: division by zero raises" binop_div_zero;
    tc "isa: shift count masked" shift_masks_count;
    tc "isa: comparisons unsigned" relop_unsigned;
    tc "asm: simple program" asm_simple;
    tc "asm: labels resolve" asm_labels_resolve;
    tc "asm: duplicate label rejected" asm_duplicate_label;
    tc "asm: unknown label rejected" asm_unknown_label;
    tc "asm: unknown entry rejected" asm_unknown_entry;
    tc "asm: call arity checked" asm_call_arity_checked;
    tc "asm: undefined callee rejected" asm_undefined_callee;
    tc "asm: data symbols laid out" asm_data_symbols;
    tc "asm: unknown symbol rejected" asm_unknown_symbol;
    tc "mem: alloc bounds enforced" mem_alloc_bounds;
    tc "mem: allocations padded" mem_alloc_padding;
    tc "mem: null dereference" mem_null_deref;
    tc "mem: rodata protected" mem_rodata_protected;
    tc "mem: word little-endian roundtrip" mem_word_roundtrip;
    tc "mem: zero-size alloc faults on use" mem_zero_alloc;
    tc "vfile: sequential reads" vfile_sequential;
    tc "vfile: seek and tell" vfile_seek_tell;
    tc "vfile: seek past EOF reads empty" vfile_seek_past_eof;
    tc "vfile: handles independent" vfile_two_handles;
    tc "vfile: bad fd raises" vfile_bad_fd;
    tc "interp: arithmetic" interp_arith;
    tc "interp: branching" interp_branching;
    tc "interp: loop" interp_loop;
    tc "interp: call and return" interp_call_ret;
    tc "interp: recursion" interp_recursion;
    tc "interp: fall-off returns zero" interp_fall_off_returns_zero;
    tc "interp: read from input" interp_read_input;
    tc "interp: mmap input" interp_mmap;
    tc "interp: fsize/tell/seek" interp_fsize_tell_seek;
    tc "interp: crash carries backtrace" interp_crash_backtrace;
    tc "interp: hang budget fault" interp_hang_budget;
    tc "interp: div by zero faults" interp_div_zero_fault;
    tc "interp: emit collects outputs" interp_emit_outputs;
    tc "interp: indirect call" interp_icall;
    tc "interp: invalid icall slot faults" interp_icall_invalid_slot;
    tc "hooks: input byte events" hooks_input_bytes;
    tc "hooks: access dataflow" hooks_access_dataflow;
    tc "hooks: call arguments" hooks_call_args;
    tc "hooks: branch edges" hooks_edges_on_branch;
    tc "compile: cache keyed by content digest" compile_cache_no_stale_closures;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
  @ [
    tc "hang: plain loop skips to the exact budget" hang_skip_plain_loop;
    tc "hang: emitting loop never skips" hang_emit_loop_no_skip;
    tc "hang: allocating loop never skips" hang_alloc_loop_no_skip;
    tc "hang: memory and file-position counters still exit" hang_counter_loops_exit;
    tc "hang: a consumer whose state changes is never skipped" hang_changing_consumer_no_skip;
    tc "hang: memory counter cycle is its full period" hang_mem_counter_full_period;
    tc "hang: period longer than the sampling stride" hang_long_period;
    tc "hang: differential property exercises skipping" hang_property_exercises_skipping;
    tc "hang: call loop skips unhooked only" hang_call_loop;
    tc "hang: hooks without checkpoint see every step" hang_no_skip_without_checkpoint;
    tc "hang: fault injection disables skipping" hang_no_skip_under_injection;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"compiled ≡ reference on hanging programs" arb_hang
         hang_engines_agree);
  ]
