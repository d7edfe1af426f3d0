(** Compile-once direct-threaded execution engine for MiniVM.

    The decode-per-step interpreter re-matches every instruction and
    re-resolves every operand on every executed step; for the pipeline that
    cost is paid four times per pair (S crash run, taint replay, poc' and
    poc verification) and millions of times for hang-bound pairs.  This
    module lowers a program once into arrays of OCaml closures — one
    closure per instruction, operands pre-resolved to register slots or
    pre-masked immediates, jump targets pre-indexed.  The caller holds the
    result: a verification job keeps S's and T's compilations for P1, both
    P4 replays and its later attempts, and a fuzzing campaign compiles its
    program once.

    Two closure arrays are compiled per function:

    - [fast]: instrumentation specialized OUT — no hook dispatch, no access
      record allocation.  Selected when the caller passes no hooks.
    - [slow]: the PIN-style hook protocol of {!Interp}, event-for-event
      identical to the reference decode loop (order, payloads, object
      lists), for taint replay and coverage.

    Each array carries one sentinel closure past the last instruction so
    the driver loop needs no bounds branch for the fall-off-the-end
    implicit [Ret 0].

    Semantics contract: byte-for-byte the reference interpreter —
    outcomes, crash sites, backtraces, step counts, output channels,
    fault-injection and deadline behavior, and the hook streams of every
    consumer that does not opt into cycle skipping.  The qcheck
    differential properties in [test/test_vm.ml] pin this against
    {!Interp.run_reference} over random DSL programs, terminating and
    hanging ones alike.

    Hang cycles.  A run that would only end at its step budget (the
    CWE-835 model) is not executed to the budget when the run loop can
    prove it is periodic.  Every {!deadline_stride} steps (from step
    [deadline_stride] on) the run loop compares the machine state with
    one saved snapshot, re-saved after a doubling number of samples
    (Brent's cycle detection).  The comparison is structural, never a
    hash: frames (function, pc, registers, return slot), [next_frame]
    when hooked (hook payloads carry frame ids), file handles and
    [next_fd], [brk] (it grows with every region), [outputs] by physical
    equality, and last the bytes of every writable region.  The memory
    region cache and the step counter are not state.  The machine is
    deterministic, so equal states at steps [s0 < s] mean the run repeats
    with a period dividing [L = s - s0] forever: it can never exit or
    fault before the budget.  The run loop then advances the step counter
    by the largest multiple of [L] that fits the budget and keeps
    executing, so the budget fault fires in the same state — same pc,
    function, backtrace, outputs and [steps] — as the full run.  The
    result's [cycle] records [(s0, L)].

    Skipping is off when fault injection is enabled (per-syscall draws
    advance an RNG stream outside the machine state) and for hooked runs
    whose hooks carry no [checkpoint].  A hooked consumer opts in with
    [checkpoint]: the run loop calls it at every snapshot, and on a machine
    state match skips only if the returned closure reports the consumer's
    own state unchanged since then — which makes the events the skip
    withholds a no-op on the consumer.  {!Interp.run_reference} never
    skips; it is the full-length oracle.

    The shared runtime types ([hooks], [crash], [result], ...) live here —
    the bottom of the VM dependency order — and {!Interp} re-exports them
    with type equations, so existing callers compile unchanged. *)

open Isa
module Deadline = Octo_util.Deadline
module Faultinject = Octo_util.Faultinject

(** A taintable object: a register of a specific activation frame, or one
    byte of memory. *)
type obj =
  | OReg of int * reg   (** (frame id, register) *)
  | OMem of int         (** byte address *)

type access = {
  reads : obj list;
  writes : obj list;
}
(** One dataflow event: every write object receives the joined influence of
    all read objects. *)

type hooks = {
  on_access : access -> unit;
  on_input_bytes : addr:int -> file_off:int -> len:int -> unit;
  on_call : fname:string -> frame_id:int -> args:int list -> unit;
  on_ret : string -> unit;
  on_edge : string -> int -> int -> unit;
  on_step : string -> int -> unit;
  on_seek : fd:int -> pos:int -> unit;
  checkpoint : (unit -> unit -> bool) option;
      (** cycle-skip opt-in: [checkpoint ()] captures the consumer's state
          and returns a closure telling whether the state is still equal
          to the capture.  [None] (the default) never skips. *)
}

let no_hooks =
  {
    on_access = (fun _ -> ());
    on_input_bytes = (fun ~addr:_ ~file_off:_ ~len:_ -> ());
    on_call = (fun ~fname:_ ~frame_id:_ ~args:_ -> ());
    on_ret = (fun _ -> ());
    on_edge = (fun _ _ _ -> ());
    on_step = (fun _ _ -> ());
    on_seek = (fun ~fd:_ ~pos:_ -> ());
    checkpoint = None;
  }

type crash = {
  fault : Mem.fault;
  crash_func : string;
  crash_pc : int;
  backtrace : string list;  (** outermost (entry) first, crash site last *)
}

type outcome =
  | Exited of int
  | Crashed of crash

type result = {
  outcome : outcome;
  outputs : int list;
  steps : int;
  cycle : (int * int) option;
      (** [(s0, l)] when the run was proven periodic: the state at step
          [s0] recurs at [s0 + l], and the budget was reached by skipping
          whole periods.  Always [None] from the reference interpreter. *)
}

exception Exit_program of int

let default_max_steps = 400_000

(* Deadline polling granularity: one monotonic-clock read every this many
   steps.  Power of two so the gate is a single [land]. *)
let deadline_stride = 2048

(* ------------------------------------------------------------------ *)
(* Compiled representation. *)

type cfunc = {
  cf_name : string;
  mutable fast : op array;  (** hook-free closures, length [code+1] *)
  mutable slow : op array;  (** hooked closures, length [code+1] *)
}

and cframe = {
  cfunc : cfunc;
  mutable pc : int;
  regs : int array;
  ret_dst : reg option;
  frame_id : int;
  ops : op array;  (** the mode-selected closure array of [cfunc] *)
}

and ectx = {
  mem : Mem.t;
  file : Vfile.t;
  input : string;
  hooks : hooks;
  inject : Faultinject.t;
  hooked : bool;
  mutable outputs : int list;  (* reversed *)
  mutable stack : cframe list;
  mutable cur : cframe;
  mutable next_frame : int;
  mutable steps : int;
}

and op = ectx -> unit

type compiled = {
  centry : cfunc;
  cdata : (string * int * string) list;
}

(* ------------------------------------------------------------------ *)
(* Operand pre-resolution.  Register indices outside 0..31 compile to
   closures that raise exactly as the reference's [Array.get] would, so
   unsafe accesses are only emitted for statically-valid slots. *)

let reg_ok r = r >= 0 && r < 32

let rval (o : operand) : cframe -> int =
  match o with
  | Reg r when reg_ok r -> fun fr -> Array.unsafe_get fr.regs r
  | Reg r -> fun fr -> fr.regs.(r)
  | Imm v ->
      let v = mask32 v in
      fun _ -> v
  | Sym s -> fun _ -> invalid_arg ("Interp: unresolved symbol " ^ s)

(* Static read-object shape of an operand (hooked mode only). *)
let oreads (o : operand) : cframe -> obj list =
  match o with
  | Reg r -> fun fr -> [ OReg (fr.frame_id, r) ]
  | Imm _ | Sym _ -> fun _ -> []

let set_reg d : cframe -> int -> unit =
  if reg_ok d then fun fr v -> Array.unsafe_set fr.regs d v
  else fun fr v -> fr.regs.(d) <- v

let missing_func pname fname () =
  invalid_arg (Printf.sprintf "Isa.func_exn: no function %S in %s" fname pname)

(* ------------------------------------------------------------------ *)
(* Frame push/pop shared by calls and returns. *)

let pop_to ctx caller rest =
  ctx.stack <- rest;
  ctx.cur <- caller

(* ------------------------------------------------------------------ *)
(* Instruction lowering.  [hooked] selects whether the PIN-style hook
   protocol is compiled in; the hook-free variant allocates nothing on the
   per-step path.  Event order and payloads of the hooked variant replicate
   the reference decode loop exactly. *)

let compile_instr ~hooked ~(p : program) ~(cfuncs : (string, cfunc) Hashtbl.t)
    ~(ftable : (string * cfunc option) array) ~(fname : string) ~(pc : int) (ins : instr) : op
    =
  let pc1 = pc + 1 in
  let on_step ctx = ctx.hooks.on_step fname pc in
  (* Shared call lowering: resolve the callee statically when it exists;
     a missing callee raises [func_exn]'s error at execution time, after
     the step hook, exactly like the reference. *)
  let compile_call (callee : cfunc option) (callee_name : string) (args : operand list)
      (dst : reg option) : op =
    let getters = Array.of_list (List.map rval args) in
    let nargs = Array.length getters in
    match callee with
    | None -> fun ctx -> if hooked then on_step ctx; missing_func p.pname callee_name ()
    | Some callee ->
        if not hooked then fun ctx ->
          let fr = ctx.cur in
          let regs = Array.make 32 0 in
          for i = 0 to nargs - 1 do
            let v = (Array.unsafe_get getters i) fr in
            if i < 32 then Array.unsafe_set regs i (v land 0xFFFFFFFF)
          done;
          let frame_id = ctx.next_frame in
          ctx.next_frame <- frame_id + 1;
          let nf =
            { cfunc = callee; pc = 0; regs; ret_dst = dst; frame_id; ops = callee.fast }
          in
          fr.pc <- pc1;
          ctx.stack <- nf :: ctx.stack;
          ctx.cur <- nf
        else begin
          let readers = Array.of_list (List.map oreads args) in
          fun ctx ->
            let fr = ctx.cur in
            on_step ctx;
            let argv = Array.make nargs 0 in
            for i = 0 to nargs - 1 do
              argv.(i) <- (Array.unsafe_get getters i) fr
            done;
            let regs = Array.make 32 0 in
            Array.iteri (fun i v -> if i < 32 then regs.(i) <- v land 0xFFFFFFFF) argv;
            let frame_id = ctx.next_frame in
            ctx.next_frame <- frame_id + 1;
            let nf =
              { cfunc = callee; pc = 0; regs; ret_dst = dst; frame_id; ops = callee.slow }
            in
            Array.iteri
              (fun i rd ->
                ctx.hooks.on_access { reads = rd fr; writes = [ OReg (frame_id, i) ] })
              readers;
            ctx.hooks.on_edge fname pc 0;
            fr.pc <- pc1;
            ctx.stack <- nf :: ctx.stack;
            ctx.cur <- nf;
            ctx.hooks.on_call ~fname:callee.cf_name ~frame_id ~args:(Array.to_list argv)
        end
  in
  match ins with
  | Mov (d, a) ->
      let ga = rval a and set = set_reg d in
      if not hooked then fun ctx ->
        let fr = ctx.cur in
        set fr (ga fr);
        fr.pc <- pc1
      else begin
        let ra = oreads a in
        fun ctx ->
          let fr = ctx.cur in
          on_step ctx;
          ctx.hooks.on_access { reads = ra fr; writes = [ OReg (fr.frame_id, d) ] };
          set fr (ga fr);
          fr.pc <- pc1
      end
  | Bin (op, d, x, y) ->
      let gx = rval x and gy = rval y and set = set_reg d in
      (* Specialize the operator away; inputs are re-masked like
         [eval_binop] (register contents may exceed 32 bits via alloc
         bases). *)
      let f : cframe -> int =
        match op with
        | Add -> fun fr -> ((gx fr land 0xFFFFFFFF) + (gy fr land 0xFFFFFFFF)) land 0xFFFFFFFF
        | Sub -> fun fr -> ((gx fr land 0xFFFFFFFF) - (gy fr land 0xFFFFFFFF)) land 0xFFFFFFFF
        | Mul -> fun fr -> ((gx fr land 0xFFFFFFFF) * (gy fr land 0xFFFFFFFF)) land 0xFFFFFFFF
        | Div ->
            fun fr ->
              let b = gy fr land 0xFFFFFFFF in
              if b = 0 then raise (Mem.Fault Mem.Div_by_zero)
              else (gx fr land 0xFFFFFFFF) / b
        | Mod ->
            fun fr ->
              let b = gy fr land 0xFFFFFFFF in
              if b = 0 then raise (Mem.Fault Mem.Div_by_zero)
              else (gx fr land 0xFFFFFFFF) mod b
        | And -> fun fr -> gx fr land gy fr land 0xFFFFFFFF
        | Or -> fun fr -> (gx fr lor gy fr) land 0xFFFFFFFF
        | Xor -> fun fr -> (gx fr lxor gy fr) land 0xFFFFFFFF
        | Shl ->
            fun fr -> (gx fr land 0xFFFFFFFF) lsl (gy fr land 31) land 0xFFFFFFFF
        | Shr -> fun fr -> (gx fr land 0xFFFFFFFF) lsr (gy fr land 31)
      in
      if not hooked then fun ctx ->
        let fr = ctx.cur in
        set fr (f fr);
        fr.pc <- pc1
      else begin
        let rx = oreads x and ry = oreads y in
        fun ctx ->
          let fr = ctx.cur in
          on_step ctx;
          ctx.hooks.on_access { reads = rx fr @ ry fr; writes = [ OReg (fr.frame_id, d) ] };
          set fr (f fr);
          fr.pc <- pc1
      end
  | Load8 (d, b, o) ->
      let gb = rval b and go = rval o and set = set_reg d in
      if not hooked then fun ctx ->
        let fr = ctx.cur in
        let addr = (gb fr + go fr) land 0xFFFFFFFF in
        set fr (Mem.read8 ctx.mem addr);
        fr.pc <- pc1
      else begin
        let rb = oreads b and ro = oreads o in
        fun ctx ->
          let fr = ctx.cur in
          on_step ctx;
          let addr = (gb fr + go fr) land 0xFFFFFFFF in
          let v = Mem.read8 ctx.mem addr in
          ctx.hooks.on_access
            {
              reads = (OMem addr :: rb fr) @ ro fr;
              writes = [ OReg (fr.frame_id, d) ];
            };
          set fr v;
          fr.pc <- pc1
      end
  | LoadW (d, b, o) ->
      let gb = rval b and go = rval o and set = set_reg d in
      if not hooked then fun ctx ->
        let fr = ctx.cur in
        let addr = (gb fr + go fr) land 0xFFFFFFFF in
        set fr (Mem.read_word ctx.mem addr land 0xFFFFFFFF);
        fr.pc <- pc1
      else begin
        let rb = oreads b and ro = oreads o in
        fun ctx ->
          let fr = ctx.cur in
          on_step ctx;
          let addr = (gb fr + go fr) land 0xFFFFFFFF in
          let v = Mem.read_word ctx.mem addr in
          ctx.hooks.on_access
            {
              reads = (List.init 4 (fun i -> OMem (addr + i)) @ rb fr) @ ro fr;
              writes = [ OReg (fr.frame_id, d) ];
            };
          set fr (v land 0xFFFFFFFF);
          fr.pc <- pc1
      end
  | Store8 (b, o, v) ->
      let gb = rval b and go = rval o and gv = rval v in
      if not hooked then fun ctx ->
        let fr = ctx.cur in
        let addr = (gb fr + go fr) land 0xFFFFFFFF in
        Mem.write8 ctx.mem addr (gv fr);
        fr.pc <- pc1
      else begin
        let rb = oreads b and ro = oreads o and rv = oreads v in
        fun ctx ->
          let fr = ctx.cur in
          on_step ctx;
          let addr = (gb fr + go fr) land 0xFFFFFFFF in
          ctx.hooks.on_access
            { reads = (rv fr @ rb fr) @ ro fr; writes = [ OMem addr ] };
          Mem.write8 ctx.mem addr (gv fr);
          fr.pc <- pc1
      end
  | StoreW (b, o, v) ->
      let gb = rval b and go = rval o and gv = rval v in
      if not hooked then fun ctx ->
        let fr = ctx.cur in
        let addr = (gb fr + go fr) land 0xFFFFFFFF in
        Mem.write_word ctx.mem addr (gv fr);
        fr.pc <- pc1
      else begin
        let rb = oreads b and ro = oreads o and rv = oreads v in
        fun ctx ->
          let fr = ctx.cur in
          on_step ctx;
          let addr = (gb fr + go fr) land 0xFFFFFFFF in
          ctx.hooks.on_access
            {
              reads = (rv fr @ rb fr) @ ro fr;
              writes = List.init 4 (fun i -> OMem (addr + i));
            };
          Mem.write_word ctx.mem addr (gv fr);
          fr.pc <- pc1
      end
  | Jmp t ->
      if not hooked then fun ctx -> ctx.cur.pc <- t
      else fun ctx ->
        on_step ctx;
        ctx.hooks.on_edge fname pc t;
        ctx.cur.pc <- t
  | Jif (rel, a, b, t) ->
      let ga = rval a and gb = rval b in
      (* Specialized unsigned comparison over masked 32-bit values. *)
      let cmp : cframe -> bool =
        match rel with
        | Eq -> fun fr -> ga fr land 0xFFFFFFFF = gb fr land 0xFFFFFFFF
        | Ne -> fun fr -> ga fr land 0xFFFFFFFF <> gb fr land 0xFFFFFFFF
        | Lt -> fun fr -> ga fr land 0xFFFFFFFF < gb fr land 0xFFFFFFFF
        | Le -> fun fr -> ga fr land 0xFFFFFFFF <= gb fr land 0xFFFFFFFF
        | Gt -> fun fr -> ga fr land 0xFFFFFFFF > gb fr land 0xFFFFFFFF
        | Ge -> fun fr -> ga fr land 0xFFFFFFFF >= gb fr land 0xFFFFFFFF
      in
      if not hooked then fun ctx ->
        let fr = ctx.cur in
        fr.pc <- (if cmp fr then t else pc1)
      else begin
        let ra = oreads a and rb = oreads b in
        fun ctx ->
          let fr = ctx.cur in
          on_step ctx;
          ctx.hooks.on_access { reads = ra fr @ rb fr; writes = [] };
          let dst = if cmp fr then t else pc1 in
          ctx.hooks.on_edge fname pc dst;
          fr.pc <- dst
      end
  | Call (callee, args, dst) -> compile_call (Hashtbl.find_opt cfuncs callee) callee args dst
  | Icall (f, args, dst) ->
      let gf = rval f in
      let slots =
        Array.map (fun (nm, cf) -> compile_call cf nm args dst) ftable
      in
      let nslots = Array.length slots in
      fun ctx ->
        (* The per-slot closure replays the step hook itself in hooked
           mode, so only the bounds check lives here; an invalid slot must
           still fire the step hook first, like the reference. *)
        let idx = gf ctx.cur in
        if idx < 0 || idx >= nslots then begin
          if hooked then on_step ctx;
          raise (Mem.Fault (Mem.Bad_icall idx))
        end
        else (Array.unsafe_get slots idx) ctx
  | Ret v ->
      let gv = rval v in
      if not hooked then fun ctx ->
        let fr = ctx.cur in
        let rv = gv fr in
        (match ctx.stack with
        | [ _ ] -> raise (Exit_program rv)
        | _ :: (caller :: _ as rest) ->
            (match fr.ret_dst with Some d -> caller.regs.(d) <- rv | None -> ());
            pop_to ctx caller rest
        | [] -> assert false)
      else begin
        let rv_reads = oreads v in
        fun ctx ->
          let fr = ctx.cur in
          on_step ctx;
          ctx.hooks.on_ret fname;
          let rv = gv fr in
          match ctx.stack with
          | [ _ ] -> raise (Exit_program rv)
          | _ :: (caller :: _ as rest) ->
              (match fr.ret_dst with
              | Some d ->
                  ctx.hooks.on_access
                    { reads = rv_reads fr; writes = [ OReg (caller.frame_id, d) ] };
                  caller.regs.(d) <- rv
              | None -> ());
              pop_to ctx caller rest
          | [] -> assert false
      end
  | Halt ->
      fun ctx ->
        if hooked then on_step ctx;
        raise (Exit_program 0)
  | Sys sc -> (
      let sys_gate ctx =
        if hooked then on_step ctx;
        Faultinject.maybe_raise ctx.inject Faultinject.Vm_syscall ~what:"vm syscall"
      in
      let wr_access ctx d =
        if hooked then
          ctx.hooks.on_access { reads = []; writes = [ OReg (ctx.cur.frame_id, d) ] }
      in
      match sc with
      | Open d ->
          let set = set_reg d in
          fun ctx ->
            sys_gate ctx;
            let fr = ctx.cur in
            set fr (Vfile.open_ ctx.file);
            wr_access ctx d;
            fr.pc <- pc1
      | Read (d, fd, buf, len) ->
          let gfd = rval fd and gbuf = rval buf and glen = rval len and set = set_reg d in
          fun ctx ->
            sys_gate ctx;
            let fr = ctx.cur in
            let fdv = gfd fr and bufv = gbuf fr and lenv = glen fr in
            let off, s = Vfile.read ctx.file fdv lenv in
            String.iteri (fun i c -> Mem.write8 ctx.mem (bufv + i) (Char.code c)) s;
            if hooked && String.length s > 0 then
              ctx.hooks.on_input_bytes ~addr:bufv ~file_off:off ~len:(String.length s);
            set fr (String.length s);
            wr_access ctx d;
            fr.pc <- pc1
      | Seek (fd, p') ->
          let gfd = rval fd and gp = rval p' in
          fun ctx ->
            sys_gate ctx;
            let fr = ctx.cur in
            let fdv = gfd fr and pv = gp fr in
            Vfile.seek ctx.file fdv pv;
            if hooked then ctx.hooks.on_seek ~fd:fdv ~pos:pv;
            fr.pc <- pc1
      | Tell (d, fd) ->
          let gfd = rval fd and set = set_reg d in
          fun ctx ->
            sys_gate ctx;
            let fr = ctx.cur in
            set fr (Vfile.tell ctx.file (gfd fr));
            wr_access ctx d;
            fr.pc <- pc1
      | Fsize (d, _fd) ->
          let set = set_reg d in
          fun ctx ->
            sys_gate ctx;
            let fr = ctx.cur in
            set fr (Vfile.size ctx.file);
            wr_access ctx d;
            fr.pc <- pc1
      | Mmap (d, _fd) ->
          let set = set_reg d in
          fun ctx ->
            sys_gate ctx;
            let fr = ctx.cur in
            let base = Mem.map_bytes ctx.mem ctx.input in
            if hooked && String.length ctx.input > 0 then
              ctx.hooks.on_input_bytes ~addr:base ~file_off:0
                ~len:(String.length ctx.input);
            set fr base;
            wr_access ctx d;
            fr.pc <- pc1
      | Alloc (d, sz) ->
          let gsz = rval sz and set = set_reg d in
          fun ctx ->
            sys_gate ctx;
            let fr = ctx.cur in
            set fr (Mem.alloc ctx.mem (gsz fr));
            wr_access ctx d;
            fr.pc <- pc1
      | Exit c ->
          let gc = rval c in
          fun ctx ->
            sys_gate ctx;
            raise (Exit_program (gc ctx.cur))
      | Emit v ->
          let gv = rval v in
          if not hooked then fun ctx ->
            sys_gate ctx;
            let fr = ctx.cur in
            ctx.outputs <- gv fr :: ctx.outputs;
            fr.pc <- pc1
          else begin
            let rv = oreads v in
            fun ctx ->
              sys_gate ctx;
              let fr = ctx.cur in
              ctx.hooks.on_access { reads = rv fr; writes = [] };
              ctx.outputs <- gv fr :: ctx.outputs;
              fr.pc <- pc1
          end)

(* The sentinel closure at index [len]: falling off the end of a function
   behaves as [Ret 0] with no step hook (the reference fires hooks only for
   real instructions). *)
let implicit_ret ~hooked ~(fname : string) : op =
 fun ctx ->
  if hooked then ctx.hooks.on_ret fname;
  match ctx.stack with
  | [ _ ] -> raise (Exit_program 0)
  | fr :: (caller :: _ as rest) ->
      (match fr.ret_dst with
      | Some d ->
          if hooked then
            ctx.hooks.on_access { reads = []; writes = [ OReg (caller.frame_id, d) ] };
          caller.regs.(d) <- 0
      | None -> ());
      pop_to ctx caller rest
  | [] -> assert false

let compile_func ~hooked ~(p : program) ~cfuncs ~ftable (f : func) : op array =
  let n = Array.length f.code in
  Array.init (n + 1) (fun pc ->
      if pc = n then implicit_ret ~hooked ~fname:f.fname
      else compile_instr ~hooked ~p ~cfuncs ~ftable ~fname:f.fname ~pc f.code.(pc))

(** [compile p] lowers every function of [p]; raises [func_exn]'s
    [Invalid_argument] when the entry function is missing, like the
    reference interpreter's first fetch would. *)
let compile (p : program) : compiled =
  let cfuncs : (string, cfunc) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name _ -> Hashtbl.replace cfuncs name { cf_name = name; fast = [||]; slow = [||] })
    p.funcs;
  let ftable = Array.map (fun nm -> (nm, Hashtbl.find_opt cfuncs nm)) p.ftable in
  Hashtbl.iter
    (fun name (f : func) ->
      let cf = Hashtbl.find cfuncs name in
      cf.fast <- compile_func ~hooked:false ~p ~cfuncs ~ftable f;
      cf.slow <- compile_func ~hooked:true ~p ~cfuncs ~ftable f)
    p.funcs;
  let centry =
    match Hashtbl.find_opt cfuncs p.entry with
    | Some cf -> cf
    | None ->
        ignore (func_exn p p.entry);
        assert false
  in
  { centry; cdata = p.data }

(* ------------------------------------------------------------------ *)
(* The canonical program digest, the base of the verdict cache's content
   keys. *)

(** [program_digest p] is the canonical content digest of [p]: functions
    in sorted-name order so the digest does not depend on hash-table
    internals.  {!Octopocs.content_key} builds on this digest — keep the
    rendering stable or journaled verdict caches invalidate. *)
let program_digest (p : program) =
  (* 512 bytes stays in the minor heap (a larger buffer is allocated
     straight into the major heap); generated programs render to about
     330-490 bytes. *)
  let b = Buffer.create 512 in
  Buffer.add_string b p.pname;
  Buffer.add_char b '\000';
  Buffer.add_string b p.entry;
  Buffer.add_char b '\000';
  let fnames = Hashtbl.fold (fun k _ acc -> k :: acc) p.funcs [] |> List.sort compare in
  List.iter
    (fun fn ->
      let f = func_exn p fn in
      Buffer.add_string b (Marshal.to_string (f.fname, f.nparams, f.code) []))
    fnames;
  Buffer.add_string b (Marshal.to_string (p.ftable, p.data) []);
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Hang-cycle detection (see the module doc).  A snapshot copies every
   part of the machine state the rest of a run can depend on.  [outputs]
   only ever grows by prepending, so it is kept physically and
   "unchanged" is one pointer comparison; [brk] grows with every new
   region, so an equal [brk] means the same region list. *)

type snap_frame = {
  sf_func : cfunc;
  sf_pc : int;
  sf_regs : int array;
  sf_ret : reg option;
}

type snapshot = {
  at : int;  (** step the snapshot was taken at *)
  frames : snap_frame list;  (** top first, like [ctx.stack] *)
  next_frame : int;
  handles : (int * int) list;  (** (fd, pos) in handle-list order *)
  next_fd : int;
  brk : int;
  outputs : int list;
  heap : Bytes.t list;  (** copies of the writable regions' bytes, in [regions] order *)
  consumer : (unit -> bool) option;  (** the hooks' [checkpoint] closure *)
}

(* Brent's algorithm: compare every sample with [snap]; re-save after
   [power] samples, doubling [power]. *)
type brent = {
  mutable snap : snapshot;
  mutable power : int;
  mutable lam : int;
}

type cycle_search =
  | Unsampled
  | Searching of brent
  | Found of int * int  (** (s0, period multiple l) *)

let writable (r : Mem.region) = r.kind <> Mem.Rodata

let snapshot (ctx : ectx) at : snapshot =
  {
    at;
    frames =
      List.map
        (fun f ->
          {
            sf_func = f.cfunc;
            sf_pc = f.pc;
            sf_regs = Array.copy f.regs;
            sf_ret = f.ret_dst;
          })
        ctx.stack;
    next_frame = ctx.next_frame;
    handles = List.map (fun (h : Vfile.handle) -> (h.fd, h.pos)) ctx.file.handles;
    next_fd = ctx.file.next_fd;
    brk = ctx.mem.brk;
    outputs = ctx.outputs;
    heap =
      List.filter_map
        (fun r -> if writable r then Some (Bytes.copy r.Mem.bytes) else None)
        ctx.mem.regions;
    consumer = Option.map (fun cp -> cp ()) ctx.hooks.checkpoint;
  }

let rec same_frames fs sfs =
  match (fs, sfs) with
  | [], [] -> true
  | f :: fs, sf :: sfs ->
      f.cfunc == sf.sf_func && f.pc = sf.sf_pc && f.ret_dst = sf.sf_ret
      && f.regs = sf.sf_regs && same_frames fs sfs
  | _ -> false

let rec same_handles hs shs =
  match (hs, shs) with
  | [], [] -> true
  | (h : Vfile.handle) :: hs, (fd, pos) :: shs -> h.fd = fd && h.pos = pos && same_handles hs shs
  | _ -> false

let rec same_heap (rs : Mem.region list) heap =
  match (rs, heap) with
  | [], [] -> true
  | r :: rs, _ when not (writable r) -> same_heap rs heap
  | r :: rs, b :: heap -> Bytes.equal r.bytes b && same_heap rs heap
  | _ -> false

(* Cheap fields first; region bytes, then the consumer, last.  Frame ids
   are observable only through hook payloads, so only hooked runs compare
   [next_frame] — which also covers the ids of the frames themselves: no
   frame was pushed since the snapshot, so an equally deep stack holds the
   same frames. *)
let same_state (ctx : ectx) (sn : snapshot) =
  ctx.outputs == sn.outputs
  && ctx.mem.brk = sn.brk
  && ctx.file.next_fd = sn.next_fd
  && ((not ctx.hooked) || ctx.next_frame = sn.next_frame)
  && same_frames ctx.stack sn.frames
  && same_handles ctx.file.handles sn.handles
  && same_heap ctx.mem.regions sn.heap
  && match sn.consumer with Some unchanged -> unchanged () | None -> true

(* ------------------------------------------------------------------ *)
(* Driver. *)

let backtrace ctx = List.rev_map (fun f -> f.cfunc.cf_name) ctx.stack

(** [run ?hooks ?max_steps ?deadline ?inject compiled ~input] executes a
    compiled program with the exact semantics of the reference
    interpreter (see {!Interp.run}). *)
let run ?(hooks = no_hooks) ?(max_steps = default_max_steps) ?(deadline = Deadline.none)
    ?(inject = Faultinject.none) (cp : compiled) ~(input : string) : result =
  let mem = Mem.create () in
  Mem.load_rodata mem cp.cdata;
  let file = Vfile.create input in
  let hooked = hooks != no_hooks in
  let entry = cp.centry in
  let fr0 =
    {
      cfunc = entry;
      pc = 0;
      regs = Array.make 32 0;
      ret_dst = None;
      frame_id = 0;
      ops = (if hooked then entry.slow else entry.fast);
    }
  in
  let ctx =
    {
      mem;
      file;
      input;
      hooks;
      inject;
      hooked;
      outputs = [];
      stack = [ fr0 ];
      cur = fr0;
      next_frame = 1;
      steps = 0;
    }
  in
  let stride = deadline_stride - 1 in
  let skip_ok =
    (not (Faultinject.enabled inject)) && ((not hooked) || Option.is_some hooks.checkpoint)
  in
  let search = ref Unsampled in
  (* Runs at every stride point; returns the step to continue from, which
     is past whole skipped periods once a cycle is proven.  Kept out of
     line so the per-step loop stays as small as before. *)
  let[@local never] at_stride s =
    Deadline.check deadline ~what:"concrete execution";
    if s = 0 || not skip_ok then s
    else
      match !search with
      | Found _ -> s
      | Unsampled ->
          search := Searching { snap = snapshot ctx s; power = 1; lam = 0 };
          s
      | Searching b when same_state ctx b.snap ->
          let l = s - b.snap.at in
          let s' = s + ((max_steps - s) / l * l) in
          search := Found (b.snap.at, l);
          if s' >= max_steps then begin
            ctx.steps <- s';
            raise (Mem.Fault Mem.Hang)
          end;
          s'
      | Searching b ->
          b.lam <- b.lam + 1;
          if b.lam = b.power then begin
            b.snap <- snapshot ctx s;
            b.power <- 2 * b.power;
            b.lam <- 0
          end;
          s
  in
  let outcome =
    try
      while true do
        let s = ctx.steps in
        if s >= max_steps then raise (Mem.Fault Mem.Hang);
        let s = if s land stride = 0 then at_stride s else s in
        ctx.steps <- s + 1;
        let fr = ctx.cur in
        let ops = fr.ops in
        let last = Array.length ops - 1 in
        let pc = fr.pc in
        if pc >= 0 && pc < last then (Array.unsafe_get ops pc) ctx
        else (Array.unsafe_get ops last) ctx
      done;
      assert false
    with
    | Exit_program c -> Exited c
    | Mem.Fault fault ->
        let fr = ctx.cur in
        Crashed
          { fault; crash_func = fr.cfunc.cf_name; crash_pc = fr.pc; backtrace = backtrace ctx }
    | Vfile.Bad_fd fd ->
        let fr = ctx.cur in
        Crashed
          {
            fault = Mem.Oob_read fd;
            crash_func = fr.cfunc.cf_name;
            crash_pc = fr.pc;
            backtrace = backtrace ctx;
          }
  in
  Octo_util.Metrics.add Octo_util.Metrics.Vm_steps ctx.steps;
  let cycle = match !search with Found (s0, l) -> Some (s0, l) | _ -> None in
  { outcome; outputs = List.rev ctx.outputs; steps = ctx.steps; cycle }
