(** Concrete interpreter for MiniVM, with PIN-style instrumentation hooks.

    The hook interface is the OCaml analogue of the paper's dynamic binary
    instrumentation layer (§IV-A): for every executed instruction the
    interpreter reports which objects (frame-local registers, memory bytes)
    were read and written, with addresses fully resolved — exactly the
    [GetCurrentAsm] primitive of Algorithm 1.  Input-derived bytes entering
    memory (read/mmap syscalls) are reported with their file offsets, which is
    how the taint engine seeds its specified memory area.

    Execution is delegated to {!Compile}: the program is lowered once into
    direct-threaded closure arrays (cached by content digest) and {!run} is a
    thin driver over the compiled form.  The original decode-per-step loop is
    kept below as {!run_reference} — the executable specification the compiled
    engine is differentially tested against (see [test/test_vm.ml]). *)

open Isa
module Deadline = Octo_util.Deadline
module Faultinject = Octo_util.Faultinject

(** A taintable object: a register of a specific activation frame, or one
    byte of memory. *)
type obj = Compile.obj =
  | OReg of int * reg   (** (frame id, register) *)
  | OMem of int         (** byte address *)

type access = Compile.access = {
  reads : obj list;
  writes : obj list;
}
(** One dataflow event: every write object receives the joined influence of
    all read objects.  Instructions that move several independent values
    (calls, returns) emit one event per moved value. *)

type hooks = Compile.hooks = {
  on_access : access -> unit;
  on_input_bytes : addr:int -> file_off:int -> len:int -> unit;
      (** [len] input-file bytes starting at [file_off] were copied to
          memory starting at [addr]. *)
  on_call : fname:string -> frame_id:int -> args:int list -> unit;
  on_ret : string -> unit;
  on_edge : string -> int -> int -> unit;
      (** control-flow edge taken: (function, from pc, to pc); used by the
          fuzzers' coverage map and by the dynamic CFG builder. *)
  on_step : string -> int -> unit;  (** executed (function, pc) *)
  on_seek : fd:int -> pos:int -> unit;
      (** explicit file repositioning; lets analyses track the file position
          indicator without re-implementing the file table *)
  checkpoint : (unit -> unit -> bool) option;
      (** opt-in to hang-cycle skipping: [checkpoint ()] captures the
          consumer's state and returns a closure that tells whether the
          consumer's state still equals the capture.  {!run} skips whole
          periods of a proven cycle only when it does, so the withheld
          events would have left the consumer unchanged.  [None] (the
          {!no_hooks} default) receives every event. *)
}

let no_hooks = Compile.no_hooks

type frame = {
  func : func;
  mutable pc : int;
  regs : int array;
  ret_dst : reg option;
  frame_id : int;
}

type crash = Compile.crash = {
  fault : Mem.fault;
  crash_func : string;
  crash_pc : int;
  backtrace : string list;  (** outermost (entry) first, crash site last *)
}

type outcome = Compile.outcome =
  | Exited of int
  | Crashed of crash

type result = Compile.result = {
  outcome : outcome;
  outputs : int list;   (** values passed to [Emit], in order *)
  steps : int;
  cycle : (int * int) option;
      (** [(s0, l)]: the run was proven periodic — the state at step [s0]
          recurs at [s0 + l] — and reached its budget by skipping whole
          periods ({!Compile}).  [None] for every other run. *)
}

exception Exit_program = Compile.Exit_program

let default_max_steps = Compile.default_max_steps

let pp_outcome ppf = function
  | Exited c -> Fmt.pf ppf "exited(%d)" c
  | Crashed c ->
      Fmt.pf ppf "CRASH %a in %s@%d [%s]" Mem.pp_fault c.fault c.crash_func c.crash_pc
        (String.concat " > " c.backtrace)

(* Deadline polling granularity: one monotonic-clock read every this many
   steps.  Power of two so the gate is a single [land]. *)
let deadline_stride = Compile.deadline_stride

(** [run ?hooks ?max_steps ?deadline ?inject program ~input] executes
    [program] on the input file [input].  Termination is via [Exit], falling
    off a [Halt], a memory fault, or the step budget (reported as a
    {!Mem.Hang} crash, the paper's CWE-835 infinite-loop manifestation).
    A run proven to be in a cycle reaches the budget by skipping whole
    periods; the result is the same as running every step, and its
    [cycle] field carries the proof ({!Compile}).

    [deadline] is polled every {!deadline_stride} steps;
    {!Octo_util.Deadline.Deadline_exceeded} propagates to the caller
    (cooperative cancellation — a wall-clock budget is not a crash of the
    program under test).  [inject] may fire a {!Faultinject.Vm_syscall}
    fault at any executed syscall; the resulting
    {!Octo_util.Faultinject.Injected} also propagates.

    The program is compiled to threaded code on first use and the
    compilation is reused across runs ({!Compile.get}); callers that
    execute the same program many times back-to-back (fuzzers) can hoist
    the lookup with {!Compile.get} + {!Compile.run} themselves. *)
let run ?hooks ?max_steps ?deadline ?inject (prog : program) ~(input : string) : result =
  Compile.run ?hooks ?max_steps ?deadline ?inject (Compile.get prog) ~input

(** [run_reference] is the original decode-per-step interpreter, byte-line
    compatible with {!run}: same outcomes, crash sites, step counts, hook
    streams, outputs, fault-injection and deadline behavior.  It never
    skips hang cycles, so it also serves as the full-length oracle for
    {!run}'s cycle skipping.  It exists as
    the executable specification for differential testing of the compiled
    engine; production callers use {!run}. *)
let run_reference ?(hooks = no_hooks) ?(max_steps = default_max_steps)
    ?(deadline = Deadline.none) ?(inject = Faultinject.none) (prog : program)
    ~(input : string) : result =
  let mem = Mem.create () in
  Mem.load_rodata mem prog.data;
  let file = Vfile.create input in
  let outputs = ref [] in
  let next_frame = ref 0 in
  let new_frame func ret_dst args =
    let regs = Array.make 32 0 in
    List.iteri (fun i v -> if i < 32 then regs.(i) <- mask32 v) args;
    let frame_id = !next_frame in
    incr next_frame;
    { func; pc = 0; regs; ret_dst; frame_id }
  in
  let entry = func_exn prog prog.entry in
  let stack = ref [ new_frame entry None [] ] in
  let steps = ref 0 in
  let current () = match !stack with f :: _ -> f | [] -> assert false in
  let value fr = function
    | Reg r -> fr.regs.(r)
    | Imm v -> mask32 v
    | Sym s -> invalid_arg ("Interp: unresolved symbol " ^ s)
  in
  let operand_reads fr = function
    | Reg r -> [ OReg (fr.frame_id, r) ]
    | Imm _ | Sym _ -> []
  in
  let backtrace () = List.rev_map (fun f -> f.func.fname) !stack in
  let do_call fname args dst =
    let fr = current () in
    let callee = func_exn prog fname in
    let argv = List.map (value fr) args in
    let nf = new_frame callee dst argv in
    (* one dataflow event per argument: caller operand -> callee register *)
    List.iteri
      (fun i arg ->
        hooks.on_access { reads = operand_reads fr arg; writes = [ OReg (nf.frame_id, i) ] })
      args;
    hooks.on_edge fr.func.fname fr.pc 0;
    fr.pc <- fr.pc + 1;
    stack := nf :: !stack;
    hooks.on_call ~fname ~frame_id:nf.frame_id ~args:argv
  in
  let step () =
    let fr = current () in
    if fr.pc < 0 || fr.pc >= Array.length fr.func.code then
      (* Falling off the end of a function behaves as [Ret 0]. *)
      begin
        hooks.on_ret fr.func.fname;
        match !stack with
        | [ _ ] -> raise (Exit_program 0)
        | _ :: (caller :: _ as rest) ->
            (match fr.ret_dst with
            | Some d ->
                hooks.on_access { reads = []; writes = [ OReg (caller.frame_id, d) ] };
                caller.regs.(d) <- 0
            | None -> ());
            stack := rest
        | [] -> assert false
      end
    else begin
      let ins = fr.func.code.(fr.pc) in
      hooks.on_step fr.func.fname fr.pc;
      match ins with
      | Mov (d, a) ->
          hooks.on_access { reads = operand_reads fr a; writes = [ OReg (fr.frame_id, d) ] };
          fr.regs.(d) <- value fr a;
          fr.pc <- fr.pc + 1
      | Bin (op, d, x, y) ->
          hooks.on_access
            { reads = operand_reads fr x @ operand_reads fr y; writes = [ OReg (fr.frame_id, d) ] };
          fr.regs.(d) <-
            (try eval_binop op (value fr x) (value fr y)
             with Division_by_zero -> raise (Mem.Fault Mem.Div_by_zero));
          fr.pc <- fr.pc + 1
      | Load8 (d, b, o) ->
          let addr = mask32 (value fr b + value fr o) in
          let v = Mem.read8 mem addr in
          hooks.on_access
            {
              reads = (OMem addr :: operand_reads fr b) @ operand_reads fr o;
              writes = [ OReg (fr.frame_id, d) ];
            };
          fr.regs.(d) <- v;
          fr.pc <- fr.pc + 1
      | LoadW (d, b, o) ->
          let addr = mask32 (value fr b + value fr o) in
          let v = Mem.read_word mem addr in
          hooks.on_access
            {
              reads =
                (List.init 4 (fun i -> OMem (addr + i)) @ operand_reads fr b)
                @ operand_reads fr o;
              writes = [ OReg (fr.frame_id, d) ];
            };
          fr.regs.(d) <- mask32 v;
          fr.pc <- fr.pc + 1
      | Store8 (b, o, v) ->
          let addr = mask32 (value fr b + value fr o) in
          hooks.on_access
            {
              reads = (operand_reads fr v @ operand_reads fr b) @ operand_reads fr o;
              writes = [ OMem addr ];
            };
          Mem.write8 mem addr (value fr v);
          fr.pc <- fr.pc + 1
      | StoreW (b, o, v) ->
          let addr = mask32 (value fr b + value fr o) in
          hooks.on_access
            {
              reads = (operand_reads fr v @ operand_reads fr b) @ operand_reads fr o;
              writes = List.init 4 (fun i -> OMem (addr + i));
            };
          Mem.write_word mem addr (value fr v);
          fr.pc <- fr.pc + 1
      | Jmp t ->
          hooks.on_edge fr.func.fname fr.pc t;
          fr.pc <- t
      | Jif (rel, a, b, t) ->
          hooks.on_access { reads = operand_reads fr a @ operand_reads fr b; writes = [] };
          let taken = eval_relop rel (value fr a) (value fr b) in
          let dst = if taken then t else fr.pc + 1 in
          hooks.on_edge fr.func.fname fr.pc dst;
          fr.pc <- dst
      | Call (fname, args, dst) -> do_call fname args dst
      | Icall (f, args, dst) ->
          let idx = value fr f in
          if idx < 0 || idx >= Array.length prog.ftable then
            raise (Mem.Fault (Mem.Bad_icall idx));
          do_call prog.ftable.(idx) args dst
      | Ret v -> (
          hooks.on_ret fr.func.fname;
          let rv = value fr v in
          match !stack with
          | [ _ ] -> raise (Exit_program rv)
          | _ :: (caller :: _ as rest) ->
              (match fr.ret_dst with
              | Some d ->
                  hooks.on_access
                    { reads = operand_reads fr v; writes = [ OReg (caller.frame_id, d) ] };
                  caller.regs.(d) <- rv
              | None -> ());
              stack := rest
          | [] -> assert false)
      | Halt -> raise (Exit_program 0)
      | Sys sc -> (
          Faultinject.maybe_raise inject Faultinject.Vm_syscall ~what:"vm syscall";
          let next () = fr.pc <- fr.pc + 1 in
          match sc with
          | Open d ->
              fr.regs.(d) <- Vfile.open_ file;
              hooks.on_access { reads = []; writes = [ OReg (fr.frame_id, d) ] };
              next ()
          | Read (d, fd, buf, len) ->
              let fdv = value fr fd and bufv = value fr buf and lenv = value fr len in
              let off, s = Vfile.read file fdv lenv in
              String.iteri (fun i c -> Mem.write8 mem (bufv + i) (Char.code c)) s;
              if String.length s > 0 then
                hooks.on_input_bytes ~addr:bufv ~file_off:off ~len:(String.length s);
              fr.regs.(d) <- String.length s;
              hooks.on_access { reads = []; writes = [ OReg (fr.frame_id, d) ] };
              next ()
          | Seek (fd, p) ->
              Vfile.seek file (value fr fd) (value fr p);
              hooks.on_seek ~fd:(value fr fd) ~pos:(value fr p);
              next ()
          | Tell (d, fd) ->
              fr.regs.(d) <- Vfile.tell file (value fr fd);
              hooks.on_access { reads = []; writes = [ OReg (fr.frame_id, d) ] };
              next ()
          | Fsize (d, _fd) ->
              fr.regs.(d) <- Vfile.size file;
              hooks.on_access { reads = []; writes = [ OReg (fr.frame_id, d) ] };
              next ()
          | Mmap (d, _fd) ->
              let base = Mem.map_bytes mem input in
              if String.length input > 0 then
                hooks.on_input_bytes ~addr:base ~file_off:0 ~len:(String.length input);
              fr.regs.(d) <- base;
              hooks.on_access { reads = []; writes = [ OReg (fr.frame_id, d) ] };
              next ()
          | Alloc (d, sz) ->
              fr.regs.(d) <- Mem.alloc mem (value fr sz);
              hooks.on_access { reads = []; writes = [ OReg (fr.frame_id, d) ] };
              next ()
          | Exit c -> raise (Exit_program (value fr c))
          | Emit v ->
              hooks.on_access { reads = operand_reads fr v; writes = [] };
              outputs := value fr v :: !outputs;
              next ())
    end
  in
  let outcome =
    try
      let rec loop () =
        if !steps >= max_steps then raise (Mem.Fault Mem.Hang);
        if !steps land (deadline_stride - 1) = 0 then
          Deadline.check deadline ~what:"concrete execution";
        incr steps;
        step ();
        loop ()
      in
      loop ()
    with
    | Exit_program c -> Exited c
    | Mem.Fault fault ->
        let fr = current () in
        Crashed
          { fault; crash_func = fr.func.fname; crash_pc = fr.pc; backtrace = backtrace () }
    | Vfile.Bad_fd fd ->
        let fr = current () in
        Crashed
          {
            fault = Mem.Oob_read fd;
            crash_func = fr.func.fname;
            crash_pc = fr.pc;
            backtrace = backtrace ();
          }
  in
  Octo_util.Metrics.add Octo_util.Metrics.Vm_steps !steps;
  { outcome; outputs = List.rev !outputs; steps = !steps; cycle = None }

(** [crashes result] is true when the run ended in any fault. *)
let crashes r = match r.outcome with Crashed _ -> true | Exited _ -> false

(** [crash_in result ~funcs] is true when the run crashed while executing one
    of [funcs] — the P4 check that the reproduced crash is the propagated
    vulnerability and not an unrelated fault. *)
let crash_in r ~funcs =
  match r.outcome with
  | Crashed c -> List.mem c.crash_func funcs
  | Exited _ -> false
