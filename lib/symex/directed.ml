(** Directed symbolic execution (paper §III-B, P2).

    One single state is driven from the program entry toward [ep].  At every
    branch the constraints cannot decide, the executor consults the
    interprocedural distance map of {!Octo_cfg.Cfg} — the product of backward
    path finding — and commits to the direction that gets closer to [ep],
    falling back to the other direction when the preferred one is
    unsatisfiable.

    Loop states are handled as in the paper: a branch recognised as a loop
    head is given an iteration budget, initially 0, raised one grant at a
    time up to θ (default 120).  A run that dies after exiting a loop is
    classified {e loop-dead} and retried with one more iteration of the
    most recently exited loop; a run that dies with no loop involvement is
    {e program-dead}, meaning ℓ is unreachable and the vulnerability cannot
    be triggered (verification case iii).

    The retry chain is serial, and each retry resumes instead of starting
    over.  Everything an attempt does before loop L's first "exit"
    decision is independent of L's budget, so every attempt snapshots its
    state at the first exit decision of each loop key; the retry that
    grants L resumes from L's snapshot and re-decides that branch under the
    new budget.  The resumed state carries the prefix's step count, so
    [max_steps], the deadline poll and every later decision fire exactly
    as from scratch: same outcome, same state at [Reached], same grants.  A
    loop that needs k grants costs O(k) steps instead of O(k²).
    {!run_reference} keeps the from-scratch chain as the differential
    oracle. *)

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

(** Work counters of one {!run}.  [runs] counts attempts and
    [loop_retries] counts grants, resumed or not.  [total_steps] and
    [branches_decided] count only the work actually executed: a resumed
    attempt adds the steps and decisions of its suffix, not of the prefix
    it inherited from its snapshot. *)
type stats = {
  mutable runs : int;
  mutable total_steps : int;
  mutable branches_decided : int;
  mutable loop_retries : int;
  mutable resumed : int;
      (** retries that resumed from a snapshot rather than a fresh state *)
  mutable states_pruned : int;
      (** branch directions refuted as unsat by [take_branch] *)
}

(** Optional path-decision observer, for the provenance layer: the
    executor itself stays agnostic of how the evidence is stored (the
    core library sits above this one in the dependency order).  All
    callbacks fire on the slow paths only — a probe-free run pays one
    pattern match per event site.  [on_forced] and [on_pruned] fire for
    executed work only, so a resumed attempt does not repeat its prefix's
    events. *)
type probe = {
  on_forced : func:string -> pc:int -> preferred_taken:bool -> unit;
      (** the distance-preferred direction was unsat; fell back *)
  on_pruned : func:string -> pc:int -> unit;
      (** both directions unsat: the state died at this branch *)
  on_loop_retry : func:string -> pc:int -> granted:int -> theta:int -> unit;
      (** a loop-dead run granted this loop one more iteration *)
}

(** [on_ep st ledger ~count ~args ~file_pos] runs at every entry of [ep]
    in state [st].  [ledger] is the caller's own per-state value (P3's pin
    ledger): a fresh state starts from {!run}'s [~ledger], and the value
    returned travels with the state, snapshots included, so a resumed
    attempt sees exactly what a from-scratch replay would have rebuilt. *)
type 'l on_ep =
  Sym_state.t -> 'l -> count:int -> args:Expr.t list -> file_pos:int -> ep_action * 'l

(** [stop_at_first] ends the run at the first entry of [ep], for callers
    that only ask whether [ep] is reachable. *)
let stop_at_first : unit on_ep = fun _ () ~count:_ ~args:_ ~file_pos:_ -> (Stop, ())

let fresh_stats () =
  {
    runs = 0;
    total_steps = 0;
    branches_decided = 0;
    loop_retries = 0;
    resumed = 0;
    states_pruned = 0;
  }

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

(* Where an attempt starts.  A snapshot is the state at the first exit
   decision of one loop key, captured before that branch was counted or
   taken; a fresh state is the start with no pending branch. *)
type 'l start = {
  st : Sym_state.t;
  pending : Sym_state.branch option;
  last_exit : (string * int) option;
  ledger : 'l;
}

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

(* One attempt from [start].  With [snaps], the first exit decision of
   every loop key not yet in the table is recorded there. *)
let run_once ~(config : config) ~(deadline : Deadline.t) ~(distance : string -> int -> int)
    ~(iters : (string * int, int) Hashtbl.t)
    ~(heads : (string, (int, unit) Hashtbl.t) Hashtbl.t) ~(on_ep : 'l on_ep)
    ~(probe : probe option) ~(stats : stats)
    ~(snaps : (string * int, 'l start) Hashtbl.t option) (start : 'l start) : attempt =
  let st = start.st in
  let steps0 = st.steps in
  let last_loop_exit = ref start.last_exit in
  let ledger = ref start.ledger in
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
          let action, l = on_ep st !ledger ~count ~args ~file_pos in
          ledger := l;
          match action with
          | Continue -> go ()
          | Stop -> A_reached st
          | Conflict -> A_conflict count)
      | Sym_state.Branch_choice br -> decide br
  and decide (br : Sym_state.branch) =
    stats.branches_decided <- stats.branches_decided + 1;
    let fr_id = (Sym_state.current st).frame_id in
    let visit_key = (fr_id, br.br_pc) in
    let visits =
      (match Hashtbl.find_opt st.loop_visits visit_key with Some n -> n | None -> 0) + 1
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
    let exits = is_loop && visits > iter_budget loop_key in
    (match snaps with
    | Some tbl when exits && not (Hashtbl.mem tbl loop_key) ->
        Hashtbl.replace tbl loop_key
          {
            st = Sym_state.clone st;
            pending = Some br;
            last_exit = !last_loop_exit;
            ledger = !ledger;
          }
    | _ -> ());
    Hashtbl.replace st.loop_visits visit_key visits;
    let continue_dir = br.br_is_loop in
    let preferred =
      if is_loop then if exits then not continue_dir else continue_dir
      else begin
        (* Distance policy: smaller distance to the next ep entry wins. *)
        let dt = distance br.br_func br.br_taken_pc in
        let df = distance br.br_func br.br_fall_pc in
        dt <= df
      end
    in
    if Sym_state.take_branch st br ~taken:preferred then begin
      if exits then last_loop_exit := Some loop_key;
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
    end
  in
  let r =
    match start.pending with
    | None -> go ()
    | Some br ->
        (* The poll a fresh attempt makes at its step 0. *)
        Deadline.check deadline ~what:"directed symbolic execution";
        decide br
  in
  stats.runs <- stats.runs + 1;
  stats.total_steps <- stats.total_steps + (st.steps - steps0);
  r

(* The loop-retry chain.  [incremental] resumes each retry from the
   granted loop's snapshot; without it every attempt starts from a fresh
   state, the paper's literal procedure. *)
let chain ~incremental ~config ~probe ~deadline (prog : Isa.program) ~ep
    ~(cfg : Cfg.t) ~(ledger : 'l) ~(on_ep : 'l on_ep) : outcome * stats =
  let stats = fresh_stats () in
  if not (Cfg.ep_reachable cfg) then (Failed Ep_not_in_cfg, stats)
  else begin
    let iters : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
    let heads = loop_heads prog in
    (* One memoized distance lookup shared by every loop-retry attempt:
       distinct attempts query the same (func, pc) pairs at the branches
       they share. *)
    let distance = Cfg.distance_fn cfg in
    let snaps = if incremental then Some (Hashtbl.create 8) else None in
    let fresh () =
      { st = Sym_state.create prog ~ep; pending = None; last_exit = None; ledger }
    in
    (* Only the snapshots taken before the granted loop's survive a grant:
       the prefix they captured runs the same under the new budget, while
       everything from the granted loop's exit decision on may diverge.
       A loop blamed through a forced exit alone has no snapshot, and the
       retry starts over. *)
    let resume_point loop_key =
      match snaps with
      | None -> fresh ()
      | Some tbl -> (
          match Hashtbl.find_opt tbl loop_key with
          | None ->
              Hashtbl.reset tbl;
              fresh ()
          | Some sn ->
              stats.resumed <- stats.resumed + 1;
              let at = sn.st.steps in
              Hashtbl.filter_map_inplace
                (fun _ (s : _ start) -> if s.st.steps >= at then None else Some s)
                tbl;
              sn)
    in
    let iter_budget key = match Hashtbl.find_opt iters key with Some n -> n | None -> 0 in
    let rec attempt n start =
      if n >= config.max_runs then Failed (Budget_exhausted "loop retries")
      else
        match
          run_once ~config ~deadline ~distance ~iters ~heads ~on_ep ~probe ~stats ~snaps start
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
              attempt (n + 1) (resume_point loop_key)
            end
    in
    (* Recorded even when the deadline cuts the chain: the work was done. *)
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          Octo_util.Metrics.add Octo_util.Metrics.Symex_states_forked stats.branches_decided;
          Octo_util.Metrics.add Octo_util.Metrics.Symex_states_pruned stats.states_pruned)
        (fun () -> attempt 0 (fresh ()))
    in
    (outcome, stats)
  end

(** [run ?config ?probe ?deadline prog ~ep ~cfg ~ledger ~on_ep] drives
    directed symbolic execution with loop-state retry.  [on_ep] is invoked
    at every entry of [ep] — the combining phase P3 lives in that callback
    (see {!Octopocs.place_bunches}) — and threads its per-state [ledger].
    [probe] observes path decisions (forced fallbacks, prunes, loop-retry
    grants) for the provenance layer.  The [deadline] is polled every 1024
    symbolic steps and at every attempt's start;
    {!Octo_util.Deadline.Deadline_exceeded} propagates to the caller. *)
let run ?(config = default_config) ?probe ?(deadline = Deadline.none) prog ~ep ~cfg ~ledger
    ~on_ep =
  chain ~incremental:true ~config ~probe ~deadline prog ~ep ~cfg ~ledger ~on_ep

(** [run_reference] is {!run} with every attempt started from a fresh
    state, the paper's literal retry chain.  It is the executable
    specification of the incremental resume: same outcome, same state at
    [Reached], same [runs] and [loop_retries].  Only [total_steps],
    [branches_decided], [states_pruned] and the probe's forced/pruned
    events grow, by the prefixes it replays.  Kept for tests. *)
let run_reference ?(config = default_config) ?probe ?(deadline = Deadline.none) prog ~ep ~cfg
    ~ledger ~on_ep =
  chain ~incremental:false ~config ~probe ~deadline prog ~ep ~cfg ~ledger ~on_ep
