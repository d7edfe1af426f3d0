(** Directed symbolic execution (paper §III-B, P2).

    One single state is driven from the program entry toward [ep].  At every
    branch the constraints cannot decide, the executor consults the
    interprocedural distance map of {!Octo_cfg.Cfg} — the product of backward
    path finding — and commits to the direction that gets closer to [ep],
    falling back to the other direction when the preferred one is
    unsatisfiable.

    Loop states are handled as in the paper: a branch recognised as a loop
    head is given an iteration budget, initially 0, and re-entered on retry
    with budgets increasing up to θ (default 120).  A run that dies after
    exiting a loop is classified {e loop-dead} and retried with one more
    iteration of the most recently exited loop; a run that dies with no loop
    involvement is {e program-dead}, meaning ℓ is unreachable and the
    vulnerability cannot be triggered (verification case iii). *)

open Octo_vm
module Expr = Octo_solver.Expr
module Solve = Octo_solver.Solve
module Cfg = Octo_cfg.Cfg
module Deadline = Octo_util.Deadline

type ep_action =
  | Continue  (** keep executing (more bunches to place) *)
  | Stop      (** final bunch placed: terminate and solve *)
  | Conflict  (** bunch or argument constraints were unsatisfiable *)

type config = {
  theta : int;          (** max loop iterations to try (paper: 120) *)
  max_runs : int;       (** bound on loop-retry attempts *)
  max_steps : int;      (** per-run symbolic step budget *)
}

let default_config = { theta = 120; max_runs = 256; max_steps = 60_000 }

type failure =
  | Program_dead        (** all directions dead with no loop to blame *)
  | Ep_not_in_cfg       (** backward path finding found no path to ep *)
  | Constraint_conflict of int  (** ep-entry constraints unsat (entry #) *)
  | Budget_exhausted of string

type outcome =
  | Reached of Sym_state.t  (** stopped with all bunch constraints placed *)
  | Failed of failure

type stats = {
  mutable runs : int;
  mutable total_steps : int;
  mutable branches_decided : int;
  mutable loop_retries : int;
  mutable states_pruned : int;
      (** branch directions refuted as unsat by [take_branch] *)
}

(** Optional path-decision observer, for the provenance layer: the
    executor itself stays agnostic of how the evidence is stored (the
    core library sits above this one in the dependency order).  All
    callbacks fire on the slow paths only — a probe-free run pays one
    pattern match per event site. *)
type probe = {
  on_forced : func:string -> pc:int -> preferred_taken:bool -> unit;
      (** the distance-preferred direction was unsat; fell back *)
  on_pruned : func:string -> pc:int -> unit;
      (** both directions unsat: the state died at this branch *)
  on_loop_retry : func:string -> pc:int -> granted:int -> theta:int -> unit;
      (** a loop-dead run granted this loop one more iteration *)
}

let fresh_stats () =
  { runs = 0; total_steps = 0; branches_decided = 0; loop_retries = 0; states_pruned = 0 }

let pp_failure ppf = function
  | Program_dead -> Fmt.pf ppf "program-dead (ℓ unreachable)"
  | Ep_not_in_cfg -> Fmt.pf ppf "ep unreachable in CFG"
  | Constraint_conflict k -> Fmt.pf ppf "constraint conflict at ep entry #%d"  k
  | Budget_exhausted what -> Fmt.pf ppf "budget exhausted (%s)" what

(* Outcome of one attempt with fixed loop budgets. *)
type attempt =
  | A_reached of Sym_state.t
  | A_dead of (string * int) option   (* most recently exited loop, if any *)
  | A_conflict of int
  | A_steps

(* Static loop-head detection: a pc is a loop head when it is the target of
   a backward edge within its function.  This catches the common compiled
   shape where the conditional exit of a loop is a *forward* branch at the
   head while the latch is an unconditional backward jump. *)
let loop_heads (prog : Isa.program) : (string, (int, unit) Hashtbl.t) Hashtbl.t =
  let per_fn = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (f : Isa.func) ->
      let heads = Hashtbl.create 8 in
      Array.iteri
        (fun pc ins ->
          match ins with
          | Isa.Jmp t when t <= pc -> Hashtbl.replace heads t ()
          | Isa.Jif (_, _, _, t) when t <= pc -> Hashtbl.replace heads t ()
          | _ -> ())
        f.code;
      Hashtbl.replace per_fn name heads)
    prog.funcs;
  per_fn

let run_once ~(config : config) ~(deadline : Deadline.t) ~(distance : string -> int -> int)
    ~(iters : (string * int, int) Hashtbl.t)
    ~(heads : (string, (int, unit) Hashtbl.t) Hashtbl.t)
    ~(on_ep : Sym_state.t -> count:int -> args:Expr.t list -> file_pos:int -> ep_action)
    ~(probe : probe option) ~(stats : stats) (prog : Isa.program) ~(ep : string)
    ~sym_file_size : attempt =
  let st = Sym_state.create ~sym_file_size prog ~ep in
  let last_loop_exit = ref None in
  let iter_budget key = match Hashtbl.find_opt iters key with Some n -> n | None -> 0 in
  let rec go () =
    if st.steps land 1023 = 0 then
      Deadline.check deadline ~what:"directed symbolic execution";
    if st.steps > config.max_steps then A_steps
    else
      match Sym_state.step st with
      | Sym_state.Running -> go ()
      | Sym_state.Finished _ ->
          (* The program terminated before the final bunch was placed. *)
          A_dead !last_loop_exit
      | Sym_state.Faulted _ -> A_dead !last_loop_exit
      | Sym_state.Entered_ep { count; args; file_pos } -> (
          match on_ep st ~count ~args ~file_pos with
          | Continue -> go ()
          | Stop -> A_reached st
          | Conflict -> A_conflict count)
      | Sym_state.Branch_choice br -> (
          stats.branches_decided <- stats.branches_decided + 1;
          let fr_id = (Sym_state.current st).frame_id in
          let visit_key = (fr_id, br.br_pc) in
          let visits =
            let v = (match Hashtbl.find_opt st.loop_visits visit_key with Some n -> n | None -> 0) + 1 in
            Hashtbl.replace st.loop_visits visit_key v;
            v
          in
          let loop_key = (br.br_func, br.br_pc) in
          (* A branch is treated as a loop head when static analysis marks
             its pc as a back-edge target, when its own taken edge goes
             backward, or once it repeats within one frame. *)
          let static_head =
            match Hashtbl.find_opt heads br.br_func with
            | Some hs -> Hashtbl.mem hs br.br_pc
            | None -> false
          in
          let is_loop = br.br_is_loop || static_head || visits > 1 in
          let continue_dir = if br.br_is_loop then true else false in
          let preferred, record_exit =
            if is_loop then
              if visits <= iter_budget loop_key then (continue_dir, false)
              else ((not continue_dir), true)
            else begin
              (* Distance policy: smaller distance to the next ep entry wins. *)
              let dt = distance br.br_func br.br_taken_pc in
              let df = distance br.br_func br.br_fall_pc in
              ((dt <= df), false)
            end
          in
          if Sym_state.take_branch st br ~taken:preferred then begin
            if record_exit then last_loop_exit := Some loop_key;
            go ()
          end
          else begin
            stats.states_pruned <- stats.states_pruned + 1;
            if Sym_state.take_branch st br ~taken:(not preferred) then begin
              (match probe with
              | Some p ->
                  p.on_forced ~func:br.br_func ~pc:br.br_pc ~preferred_taken:preferred
              | None -> ());
              (* Fallback direction; if we were forced OUT of a loop that we
                 wanted to continue, that is also an exit event. *)
              if is_loop && not preferred = not continue_dir then
                last_loop_exit := Some loop_key;
              go ()
            end
            else begin
              stats.states_pruned <- stats.states_pruned + 1;
              (match probe with
              | Some p -> p.on_pruned ~func:br.br_func ~pc:br.br_pc
              | None -> ());
              A_dead !last_loop_exit
            end
          end)
  in
  let r = go () in
  stats.runs <- stats.runs + 1;
  stats.total_steps <- stats.total_steps + st.steps;
  r

(** [run ?config ?probe ?deadline prog ~ep ~cfg ~on_ep] drives directed
    symbolic execution with loop-state retry.  [on_ep] is invoked at every
    entry of [ep] — the combining phase P3 lives in that callback (see
    {!Octopocs.Phases}).  [probe] observes path decisions (forced
    fallbacks, prunes, loop-retry grants) for the provenance layer.  The
    [deadline] is polled every 1024 symbolic steps;
    {!Octo_util.Deadline.Deadline_exceeded} propagates to the caller. *)
let run ?(config = default_config) ?(sym_file_size = Sym_state.default_sym_file_size)
    ?probe ?(deadline = Deadline.none) (prog : Isa.program) ~(ep : string) ~(cfg : Cfg.t)
    ~(on_ep : Sym_state.t -> count:int -> args:Expr.t list -> file_pos:int -> ep_action) :
    outcome * stats =
  let stats = fresh_stats () in
  if not (Cfg.ep_reachable cfg) then (Failed Ep_not_in_cfg, stats)
  else begin
    let iters : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
    let heads = loop_heads prog in
    (* One memoized distance lookup shared by every loop-retry attempt:
       retries re-walk the same prefix and re-query the same (func, pc)
       pairs at each branch. *)
    let distance = Cfg.distance_fn cfg in
    let iter_budget key = match Hashtbl.find_opt iters key with Some n -> n | None -> 0 in
    let rec attempt n =
      if n >= config.max_runs then Failed (Budget_exhausted "loop retries")
      else
        match
          run_once ~config ~deadline ~distance ~iters ~heads ~on_ep ~probe ~stats prog ~ep
            ~sym_file_size
        with
        | A_reached st -> Reached st
        | A_conflict k -> Failed (Constraint_conflict k)
        | A_steps -> Failed (Budget_exhausted "symbolic steps")
        | A_dead None -> Failed Program_dead
        | A_dead (Some loop_key) ->
            (* Loop-dead: grant the most recently exited loop one more
               iteration, up to θ. *)
            let cur = iter_budget loop_key in
            if cur >= config.theta then Failed Program_dead
            else begin
              Hashtbl.replace iters loop_key (cur + 1);
              stats.loop_retries <- stats.loop_retries + 1;
              (match probe with
              | Some p ->
                  p.on_loop_retry ~func:(fst loop_key) ~pc:(snd loop_key)
                    ~granted:(cur + 1) ~theta:config.theta
              | None -> ());
              attempt (n + 1)
            end
    in
    let outcome = attempt 0 in
    Octo_util.Metrics.add Octo_util.Metrics.Symex_states_forked stats.branches_decided;
    Octo_util.Metrics.add Octo_util.Metrics.Symex_states_pruned stats.states_pruned;
    (outcome, stats)
  end
