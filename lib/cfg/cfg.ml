(** Control-flow analysis for MiniVM programs.

    This module stands in for angr's CFG recovery (paper §IV-B).  It builds:

    - the call graph (direct calls, plus indirect calls whose operand is an
      immediate function-table index);
    - per-function instruction-level successor graphs;
    - the interprocedural distance map used by backward path finding
      (§III-B): for every (function, pc), the minimum number of steps to the
      next entry of [ep].  Directed symbolic execution consults this map at
      every symbolic branch.

    Indirect calls through a register are unresolvable statically.  The real
    system inherited an angr bug here (Table II Idx-15); we model the same
    failure mode: [build] raises {!Cfg_error} when the program contains an
    unresolvable indirect call, unless [~allow_unresolved:true]. *)

open Octo_vm.Isa

exception Cfg_error of string

let infinity = max_int / 2

(** Static successor pcs of the instruction at [pc] within its function.
    Calls fall through: entering the callee is modelled separately via the
    call graph when computing distances. *)
let successors (f : func) pc =
  if pc < 0 || pc >= Array.length f.code then []
  else
    match f.code.(pc) with
    | Jmp t -> [ t ]
    | Jif (_, _, _, t) -> if t = pc + 1 then [ pc + 1 ] else [ t; pc + 1 ]
    | Ret _ | Halt | Sys (Exit _) -> []
    | Mov _ | Bin _ | Load8 _ | Store8 _ | LoadW _ | StoreW _ | Call _ | Icall _ | Sys _ ->
        [ pc + 1 ]

(** [callees program f] lists the (pc, callee-name) pairs of resolvable call
    sites in [f].  Unresolvable indirect calls raise unless allowed. *)
let callees ?(allow_unresolved = false) (prog : program) (f : func) =
  let out = ref [] in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Call (g, _, _) -> out := (pc, g) :: !out
      | Icall (Imm i, _, _) ->
          if i >= 0 && i < Array.length prog.ftable then
            out := (pc, prog.ftable.(i)) :: !out
          else raise (Cfg_error (Printf.sprintf "icall to invalid table slot %d in %s" i f.fname))
      | Icall ((Reg _ | Sym _), _, _) ->
          if not allow_unresolved then
            raise
              (Cfg_error
                 (Printf.sprintf "unresolvable indirect call at %s@%d (CFG recovery failed)"
                    f.fname pc))
      | _ -> ())
    f.code;
  List.rev !out

(** Call graph: function name -> list of (callsite pc, callee). *)
type callgraph = (string, (int * string) list) Hashtbl.t

let call_graph ?allow_unresolved (prog : program) : callgraph =
  let g = Hashtbl.create 16 in
  Hashtbl.iter (fun name f -> Hashtbl.replace g name (callees ?allow_unresolved prog f)) prog.funcs;
  g

(** [reachable_funcs prog] is the set of functions reachable from the entry
    point through resolvable calls. *)
let reachable_funcs (prog : program) =
  let cg = call_graph prog in
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      match Hashtbl.find_opt cg name with
      | Some cs -> List.iter (fun (_, g) -> visit g) cs
      | None -> ()
    end
  in
  visit prog.entry;
  seen

type t = {
  prog : program;
  ep : string;
  dist : (string, int array) Hashtbl.t;
      (** per function: distance from each pc to the next entry of [ep] *)
  fn_dist : (string, int) Hashtbl.t;
      (** distance from function entry (pc 0) to entering [ep] *)
}

(* Relax one function's distance array given current callee-entry distances.
   d(pc) = 0 if the instruction at pc calls a function g with fn_dist g = 0?
   No: standing at a call to g costs 1 step to enter g, then fn_dist g to
   reach ep from g's entry (0 when g = ep).  We iterate to a fixpoint:
   d(pc) = min(1 + min over static successors, call_bonus(pc)) where
   call_bonus(pc) = 1 + fn_dist(g) for a call site to g. *)
let relax_function prog fn_dist (f : func) (d : int array) =
  let n = Array.length f.code in
  let changed = ref false in
  let call_bonus pc =
    match f.code.(pc) with
    | Call (g, _, _) -> (
        match Hashtbl.find_opt fn_dist g with
        | Some dg when dg < infinity -> 1 + dg
        | _ -> infinity)
    | Icall (Imm i, _, _) when i >= 0 && i < Array.length prog.ftable -> (
        match Hashtbl.find_opt fn_dist prog.ftable.(i) with
        | Some dg when dg < infinity -> 1 + dg
        | _ -> infinity)
    | _ -> infinity
  in
  (* Iterate until stable; functions are small so this is cheap. *)
  let pass () =
    let any = ref false in
    for pc = n - 1 downto 0 do
      let via_succ =
        List.fold_left (fun acc s -> min acc (if s < n then 1 + d.(s) else infinity)) infinity
          (successors f pc)
      in
      let best = min via_succ (call_bonus pc) in
      if best < d.(pc) then begin
        d.(pc) <- best;
        any := true
      end
    done;
    !any
  in
  let rec go () = if pass () then go () in
  go ();
  if n > 0 then begin
    let entry_d = d.(0) in
    match Hashtbl.find_opt fn_dist f.fname with
    | Some old when old <= entry_d -> ()
    | _ ->
        Hashtbl.replace fn_dist f.fname entry_d;
        changed := true
  end;
  !changed

(** [build ?allow_unresolved program ~ep] computes the interprocedural
    distance map toward entering [ep].  This is the product of the paper's
    backward path finding: distances decrease along every correct path from
    the entry of the program to [ep].

    @raise Cfg_error when CFG recovery hits an unresolvable indirect call
    (the simulated angr defect behind Table II's Failure row). *)
let build ?(allow_unresolved = false) (prog : program) ~(ep : string) : t =
  if not (Hashtbl.mem prog.funcs ep) then
    raise (Cfg_error (Printf.sprintf "entry-point function %S not present in %s" ep prog.pname));
  (* Force detection of unresolvable icalls up front. *)
  ignore (call_graph ~allow_unresolved prog);
  let fn_dist = Hashtbl.create 16 in
  Hashtbl.replace fn_dist ep 0;
  let dist = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name f ->
      let d = Array.make (max 1 (Array.length f.code)) infinity in
      (* Inside ep itself every pc is "at" the target already. *)
      if name = ep then Array.fill d 0 (Array.length d) 0;
      Hashtbl.replace dist name d)
    prog.funcs;
  let rec fixpoint () =
    let changed = ref false in
    Hashtbl.iter
      (fun name f ->
        if name <> ep then
          let d = Hashtbl.find dist name in
          if relax_function prog fn_dist f d then changed := true)
      prog.funcs;
    if !changed then fixpoint ()
  in
  fixpoint ();
  { prog; ep; dist; fn_dist }

(** [distance t fname pc] is the minimum number of steps from (fname, pc) to
    the next entry of [t.ep]; {!infinity} when unreachable. *)
let distance t fname pc =
  match Hashtbl.find_opt t.dist fname with
  | Some d when pc >= 0 && pc < Array.length d -> d.(pc)
  | _ -> infinity

(** [distance_fn t] is [distance t] specialised for hot loops (the branch
    policy of directed execution queries it at every undecided branch, twice):
    the per-function distance array is resolved once per function name and
    memoized, so every subsequent (func, pc) lookup is a bounds check plus an
    array read instead of a hashtable probe into [t.dist]. *)
let distance_fn t =
  let cache : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  fun fname pc ->
    let arr =
      match Hashtbl.find_opt cache fname with
      | Some a -> a
      | None ->
          let a = match Hashtbl.find_opt t.dist fname with Some d -> d | None -> [||] in
          Hashtbl.add cache fname a;
          a
    in
    if pc >= 0 && pc < Array.length arr then arr.(pc) else infinity

(** [ep_reachable t] tells whether the program entry can reach [ep] at all —
    the "ep is not called in T" test of verification case (ii). *)
let ep_reachable t = distance t t.prog.entry 0 < infinity

(** [ep_called_somewhere prog ~ep] is a purely syntactic check: does any
    reachable function contain a call site of [ep]?  Distinguishes "the clone
    exists but is dead code" (Type-III case ii) from deeper unreachability. *)
let ep_called_somewhere (prog : program) ~ep =
  let reach = reachable_funcs prog in
  let found = ref false in
  Hashtbl.iter
    (fun name () ->
      match Hashtbl.find_opt prog.funcs name with
      | None -> ()
      | Some f ->
          List.iter
            (fun (_, g) -> if g = ep then found := true)
            (callees prog f))
    reach;
  !found
