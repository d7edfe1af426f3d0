(** Symbolic execution state and single-stepping for MiniVM.

    This module is the angr replacement (paper §IV-B): it executes a program
    whose input file is entirely symbolic — byte at offset [i] is the solver
    variable [Expr.Byte i] — accumulating path constraints in a
    {!Octo_solver.Solve.store}.

    The stepper is policy-free: it runs until it either finishes, faults,
    reaches a branch whose condition is not decided by the current
    constraints ([Branch_choice], the caller picks a direction), or enters
    the target function [ep] ([Entered_ep], the caller places bunch
    constraints per P3).  The naive (forking) and directed executors are
    built on top in {!Naive} and {!Directed}. *)

open Octo_vm
open Octo_vm.Isa
module Expr = Octo_solver.Expr
module Solve = Octo_solver.Solve

type sframe = {
  func : func;
  mutable pc : int;
  regs : Expr.t array;
  ret_dst : reg option;
  frame_id : int;
}

(* Symbolic memory: concrete byte addresses mapped to byte-valued
   expressions, backed by region bookkeeping for default contents. *)
type region_kind = Rodata of string | Heap of int | FileMap
(* Rodata carries its bytes; Heap carries its size (zero-filled); FileMap
   maps address base+i to input byte i. *)

type sregion = { base : int; size : int; kind : region_kind }

type t = {
  prog : program;
  ep : string;
  store : Solve.store;
  mem : (int, Expr.t) Hashtbl.t;
  mutable regions : sregion list;
  mutable brk : int;
  mutable stack : sframe list;
  mutable next_frame : int;
  mutable fds : (int * int) list;  (* fd -> position *)
  mutable next_fd : int;
  mutable steps : int;
  mutable ep_count : int;
  mutable max_read_off : int;       (* high-water mark of symbolic file reads *)
  mutable loop_visits : (int * int, int) Hashtbl.t;  (* (frame_id, pc) -> count *)
}

(* The symbolic input file's size: what [Fsize] reports, the bound on
   symbolic [Read]s and the length of an [Mmap]ed view. *)
let sym_file_size = 4096

let create (prog : program) ~(ep : string) : t =
  let st =
    {
      prog;
      ep;
      store = Solve.create ();
      mem = Hashtbl.create 256;
      regions = [];
      brk = Mem.heap_base;
      stack = [];
      next_frame = 0;
      fds = [];
      next_fd = 3;
      steps = 0;
      ep_count = 0;
      max_read_off = 0;
      loop_visits = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (_sym, base, bytes) ->
      if String.length bytes > 0 then
        st.regions <- { base; size = String.length bytes; kind = Rodata bytes } :: st.regions)
    prog.data;
  let entry = func_exn prog prog.entry in
  let regs = Array.make 32 (Expr.const 0) in
  st.stack <- [ { func = entry; pc = 0; regs; ret_dst = None; frame_id = 0 } ];
  st.next_frame <- 1;
  st

(** [clone t] deep-copies the mutable execution state; constraint stores and
    expression trees are persistent and shared.  Used by the naive forking
    executor — each clone is one "state" in angr terms, and the per-state
    footprint is what blows up in Table IV's MemError rows. *)
let clone t =
  {
    t with
    store = Solve.copy t.store;
    mem = Hashtbl.copy t.mem;
    stack =
      List.map
        (fun f -> { f with regs = Array.copy f.regs })
        t.stack;
    loop_visits = Hashtbl.copy t.loop_visits;
  }

exception Sym_fault of string

let current t = match t.stack with f :: _ -> f | [] -> raise (Sym_fault "empty stack")

let value fr = function
  | Reg r -> fr.regs.(r)
  | Imm v -> Expr.const v
  | Sym s -> raise (Sym_fault ("unresolved symbol " ^ s))

let find_region t addr = List.find_opt (fun r -> addr >= r.base && addr < r.base + r.size) t.regions

(* Default memory contents by region, before any symbolic store. *)
let default_byte t addr =
  match find_region t addr with
  | Some { kind = Rodata s; base; _ } -> Some (Expr.const (Char.code s.[addr - base]))
  | Some { kind = Heap _; _ } -> Some (Expr.const 0)
  | Some { kind = FileMap; base; _ } ->
      Some (Expr.byte (addr - base))
  | None -> None

let read8 t addr =
  match Hashtbl.find_opt t.mem addr with
  | Some e -> e
  | None -> (
      match default_byte t addr with
      | Some e -> e
      | None -> raise (Sym_fault (Printf.sprintf "symbolic OOB read at 0x%x" addr)))

let write8 t addr e =
  match find_region t addr with
  | Some { kind = Rodata _; _ } -> raise (Sym_fault (Printf.sprintf "write to rodata 0x%x" addr))
  | Some _ -> Hashtbl.replace t.mem addr e
  | None -> raise (Sym_fault (Printf.sprintf "symbolic OOB write at 0x%x" addr))

(* Concretization: addresses and a few other operands must be concrete.  If
   the constraints pin the expression to one value we use it; otherwise we
   pick the interval low bound and pin it with an extra constraint — the
   standard concretization strategy of binary symex engines. *)
let concretize t (e : Expr.t) : int =
  match Expr.to_const_opt e with
  | Some v -> v
  | None ->
      let lo, hi = Solve.ival t.store e in
      if lo = hi then lo
      else begin
        (match Solve.add t.store { rel = Eq; lhs = e; rhs = Expr.const lo } with
        | Solve.Ok -> ()
        | Solve.Unsat -> raise (Sym_fault "concretization made constraints unsat"));
        lo
      end

(* A byte load at a symbolic address: when the whole feasible address range
   sits inside one read-only region with no symbolic overrides, the load
   becomes a table-select expression instead of concretizing the address —
   this is what lets directed execution reason through indirect-dispatch
   handler tables (e.g. the devirtualized Idx-15 target). *)
let symbolic_table_load t (addr_e : Expr.t) : Expr.t option =
  let lo, hi = Solve.ival t.store addr_e in
  if hi - lo > 64 then None
  else
    match find_region t lo with
    | Some { kind = Rodata s; base; size } when hi < base + size ->
        let clean = ref true in
        for a = lo to hi do
          if Hashtbl.mem t.mem a then clean := false
        done;
        if not !clean then None
        else begin
          let table = Array.init (hi - lo + 1) (fun i -> Char.code s.[lo - base + i]) in
          Some (Expr.sel table (Expr.bin Sub addr_e (Expr.const lo)))
        end
    | _ -> None

let fd_pos t fd = match List.assoc_opt fd t.fds with Some p -> p | None -> raise (Sym_fault "bad fd")

let set_fd_pos t fd p = t.fds <- (fd, p) :: List.remove_assoc fd t.fds

(** Events returned by {!step}; the executor driving the state decides how
    to proceed. *)
type event =
  | Running
  | Branch_choice of branch
  | Entered_ep of { count : int; args : Expr.t list; file_pos : int }
  | Finished of int
  | Faulted of string

and branch = {
  br_cond : Expr.cond;    (** condition of the taken direction *)
  br_taken_pc : int;
  br_fall_pc : int;
  br_func : string;
  br_pc : int;
  br_is_loop : bool;      (** heuristic: taken target jumps backward *)
}

(** [take_branch t br ~taken] commits a direction at a symbolic branch,
    adding the corresponding constraint.  Returns [false] if that direction
    is unsatisfiable — in which case the store is left exactly as it was
    (the probe is retracted via the solver trail), so the caller can try
    the other direction on a clean store. *)
let take_branch t (br : branch) ~taken =
  let fr = current t in
  let c = if taken then br.br_cond else Expr.negate br.br_cond in
  match Solve.add_checked t.store c with
  | Solve.Unsat -> false
  | Solve.Ok ->
      fr.pc <- (if taken then br.br_taken_pc else br.br_fall_pc);
      true

let new_frame t func ret_dst (args : Expr.t list) =
  let regs = Array.make 32 (Expr.const 0) in
  List.iteri (fun i v -> if i < 32 then regs.(i) <- v) args;
  let frame_id = t.next_frame in
  t.next_frame <- t.next_frame + 1;
  { func; pc = 0; regs; ret_dst; frame_id }

let do_call t fname args dst : event =
  let fr = current t in
  let callee = func_exn t.prog fname in
  let argv = List.map (value fr) args in
  fr.pc <- fr.pc + 1;
  t.stack <- new_frame t callee dst argv :: t.stack;
  if fname = t.ep then begin
    t.ep_count <- t.ep_count + 1;
    (* File position indicator: position of the most recently used fd; a
       program with no open fd (pure mmap) anchors at 0. *)
    let pos = match t.fds with (_, p) :: _ -> p | [] -> 0 in
    Entered_ep { count = t.ep_count; args = argv; file_pos = pos }
  end
  else Running

(** [step t] executes one instruction.  All events except [Branch_choice]
    leave the state advanced; a [Branch_choice] leaves the pc at the branch
    until the caller commits a direction with {!take_branch}. *)
let step (t : t) : event =
  t.steps <- t.steps + 1;
  let fr = current t in
  if fr.pc < 0 || fr.pc >= Array.length fr.func.code then begin
    (* Implicit return 0. *)
    match t.stack with
    | [ _ ] -> Finished 0
    | _ :: (caller :: _ as rest) ->
        (match fr.ret_dst with Some d -> caller.regs.(d) <- Expr.const 0 | None -> ());
        t.stack <- rest;
        Running
    | [] -> assert false
  end
  else
    match fr.func.code.(fr.pc) with
    | Mov (d, a) ->
        fr.regs.(d) <- value fr a;
        fr.pc <- fr.pc + 1;
        Running
    | Bin (op, d, x, y) ->
        fr.regs.(d) <- Expr.bin op (value fr x) (value fr y);
        fr.pc <- fr.pc + 1;
        Running
    | Load8 (d, b, o) ->
        let addr_e = Expr.bin Add (value fr b) (value fr o) in
        (match Expr.to_const_opt addr_e with
        | Some addr -> fr.regs.(d) <- read8 t addr
        | None -> (
            match symbolic_table_load t addr_e with
            | Some e -> fr.regs.(d) <- e
            | None -> fr.regs.(d) <- read8 t (concretize t addr_e)));
        fr.pc <- fr.pc + 1;
        Running
    | LoadW (d, b, o) ->
        let addr = concretize t (Expr.bin Add (value fr b) (value fr o)) in
        let byte i sh acc = Expr.bin Or acc (Expr.bin Shl (read8 t (addr + i)) (Expr.const sh)) in
        fr.regs.(d) <- byte 3 24 (byte 2 16 (byte 1 8 (read8 t addr)));
        fr.pc <- fr.pc + 1;
        Running
    | Store8 (b, o, v) ->
        let addr = concretize t (Expr.bin Add (value fr b) (value fr o)) in
        write8 t addr (Expr.bin And (value fr v) (Expr.const 0xff));
        fr.pc <- fr.pc + 1;
        Running
    | StoreW (b, o, v) ->
        let addr = concretize t (Expr.bin Add (value fr b) (value fr o)) in
        let e = value fr v in
        for i = 0 to 3 do
          write8 t (addr + i)
            (Expr.bin And (Expr.bin Shr e (Expr.const (8 * i))) (Expr.const 0xff))
        done;
        fr.pc <- fr.pc + 1;
        Running
    | Jmp tgt ->
        fr.pc <- tgt;
        Running
    | Jif (rel, a, b, tgt) -> (
        let cond : Expr.cond = { rel; lhs = value fr a; rhs = value fr b } in
        match Solve.entails t.store cond with
        | Solve.True ->
            fr.pc <- tgt;
            Running
        | Solve.False ->
            fr.pc <- fr.pc + 1;
            Running
        | Solve.Maybe ->
            Branch_choice
              {
                br_cond = cond;
                br_taken_pc = tgt;
                br_fall_pc = fr.pc + 1;
                br_func = fr.func.fname;
                br_pc = fr.pc;
                br_is_loop = tgt <= fr.pc;
              })
    | Call (fname, args, dst) -> do_call t fname args dst
    | Icall (f, args, dst) ->
        let idx = concretize t (value fr f) in
        if idx < 0 || idx >= Array.length t.prog.ftable then
          Faulted (Printf.sprintf "icall to invalid slot %d" idx)
        else do_call t t.prog.ftable.(idx) args dst
    | Ret v -> (
        let rv = value fr v in
        match t.stack with
        | [ _ ] -> Finished (concretize t rv)
        | _ :: (caller :: _ as rest) ->
            (match fr.ret_dst with Some d -> caller.regs.(d) <- rv | None -> ());
            t.stack <- rest;
            Running
        | [] -> assert false)
    | Halt -> Finished 0
    | Sys sc -> (
        let next () = fr.pc <- fr.pc + 1 in
        match sc with
        | Open d ->
            let fd = t.next_fd in
            t.next_fd <- t.next_fd + 1;
            t.fds <- (fd, 0) :: t.fds;
            fr.regs.(d) <- Expr.const fd;
            next ();
            Running
        | Read (d, fd, buf, len) ->
            let fdv = concretize t (value fr fd) in
            let bufv = concretize t (value fr buf) in
            let lenv = concretize t (value fr len) in
            let pos = fd_pos t fdv in
            let avail = max 0 (sym_file_size - pos) in
            let n = min lenv avail in
            for i = 0 to n - 1 do
              write8 t (bufv + i) (Expr.byte (pos + i))
            done;
            set_fd_pos t fdv (pos + n);
            t.max_read_off <- max t.max_read_off (pos + n);
            fr.regs.(d) <- Expr.const n;
            next ();
            Running
        | Seek (fd, p) ->
            let fdv = concretize t (value fr fd) in
            let pv = concretize t (value fr p) in
            set_fd_pos t fdv pv;
            next ();
            Running
        | Tell (d, fd) ->
            let fdv = concretize t (value fr fd) in
            fr.regs.(d) <- Expr.const (fd_pos t fdv);
            next ();
            Running
        | Fsize (d, _) ->
            fr.regs.(d) <- Expr.const sym_file_size;
            next ();
            Running
        | Mmap (d, _) ->
            let base = t.brk in
            t.brk <- t.brk + sym_file_size + 16;
            t.regions <- { base; size = sym_file_size; kind = FileMap } :: t.regions;
            t.max_read_off <- max t.max_read_off sym_file_size;
            fr.regs.(d) <- Expr.const base;
            next ();
            Running
        | Alloc (d, sz) ->
            let szv = concretize t (value fr sz) in
            let base = t.brk in
            t.brk <- t.brk + max szv 0 + 16;
            t.regions <- { base; size = max szv 0; kind = Heap szv } :: t.regions;
            fr.regs.(d) <- Expr.const base;
            next ();
            Running
        | Exit c ->
            Finished (concretize t (value fr c))
        | Emit _ ->
            next ();
            Running)

(** [backtrace t] lists function names, outermost first. *)
let backtrace t = List.rev_map (fun f -> f.func.fname) t.stack

(** [current_loc t] is the (function, pc) about to execute. *)
let current_loc t =
  let fr = current t in
  (fr.func.fname, fr.pc)
