(** Naive (undirected) symbolic execution — the Table IV baseline.

    Breadth-first forking exploration, as a stock angr run would do when
    given only the address of the vulnerable location: every undecided
    branch clones the state for both satisfiable directions.  State count
    grows exponentially with branchy input parsing, which is exactly the
    path-explosion failure the paper demonstrates; when the live-state
    count exceeds [max_states] the run aborts with [Mem_error], matching
    the MemError entries of Table IV. *)

open Octo_vm

type config = {
  max_states : int;
      (** live-state cap standing in for 32 GB of RAM: an angr state for a
          real binary weighs tens of megabytes, so a few hundred live
          states exhaust a 32 GB machine *)
  max_total_steps : int;
}

let default_config = { max_states = 512; max_total_steps = 2_000_000 }

type outcome =
  | Reached of Sym_state.t    (** some state entered [ep] *)
  | Mem_error of int          (** state explosion; carries peak state count *)
  | Exhausted                  (** all states died without reaching [ep] *)
  | Step_limit

type stats = {
  mutable peak_states : int;
  mutable total_steps : int;
  mutable forks : int;
}

(** [run ?config prog ~ep] explores breadth-first until any state enters
    [ep].  Loop back-edges keep states alive indefinitely, so the step and
    state caps are load-bearing. *)
let run ?(config = default_config) (prog : Isa.program) ~(ep : string) : outcome * stats =
  let stats = { peak_states = 0; total_steps = 0; forks = 0 } in
  let queue = Queue.create () in
  Queue.add (Sym_state.create prog ~ep) queue;
  let result = ref None in
  (* Lockstep scheduling, as angr's simulation manager does: every epoch
     advances every live state, so memory grows with the full breadth of
     the frontier. *)
  let slice = 1 in
  while !result = None && not (Queue.is_empty queue) do
    stats.peak_states <- max stats.peak_states (Queue.length queue);
    if Queue.length queue > config.max_states then result := Some (Mem_error stats.peak_states)
    else if stats.total_steps > config.max_total_steps then result := Some Step_limit
    else begin
      let st = Queue.pop queue in
      let continue_state = ref true in
      let budget = ref slice in
      while !continue_state && !budget > 0 && !result = None do
        decr budget;
        stats.total_steps <- stats.total_steps + 1;
        match Sym_state.step st with
        | Sym_state.Running -> ()
        | Sym_state.Finished _ | Sym_state.Faulted _ -> continue_state := false
        | Sym_state.Entered_ep _ -> result := Some (Reached st)
        | Sym_state.Branch_choice br ->
            (* Fork: both satisfiable directions continue. *)
            let other = Sym_state.clone st in
            stats.forks <- stats.forks + 1;
            if Sym_state.take_branch st br ~taken:true then ()
            else continue_state := false;
            if Sym_state.take_branch other br ~taken:false then Queue.add other queue
      done;
      if !continue_state && !result = None then Queue.add st queue
    end
  done;
  let outcome = match !result with Some r -> r | None -> Exhausted in
  (outcome, stats)
