(** AFLFast-style coverage-guided fuzzer (Böhme et al., the Table V
    baseline).

    Implements the core of AFLFast over MiniVM: AFL's queue + deterministic
    first pass + havoc/splice mutations, with AFLFast's power schedule — the
    energy of a seed grows exponentially with how often it has been picked
    and inversely with how often its execution path has been exercised, so
    rarely-exercised paths get fuzzed hard. *)

open Octo_vm
module Rng = Octo_util.Rng

type config = {
  max_execs : int;          (** execution budget standing in for "20 h" *)
  rng_seed : int;
  max_energy : int;
  deterministic_limit : int;(** cap on the deterministic first pass *)
  exec_max_steps : int;
}

let default_config =
  { max_execs = 150_000; rng_seed = 0xAF1FA57; max_energy = 512; deterministic_limit = 4_000;
    exec_max_steps = 60_000 }

type seed = {
  data : string;
  mutable fuzz_count : int;
  path : int;
}

type result = {
  crash_input : string option;
  execs : int;
  elapsed_s : float;
  coverage : int;
  queue_len : int;
}

(** [run ?config prog ~seeds ~crash_in] fuzzes [prog] until a crash inside
    one of the [crash_in] functions, or until the budget is exhausted. *)
let run ?(config = default_config) (prog : Isa.program) ~(seeds : string list)
    ~(crash_in : string list) : result =
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create config.rng_seed in
  let cov = Coverage.create () in
  let queue : seed Queue.t = Queue.create () in
  let path_freq : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let execs = ref 0 in
  let found = ref None in
  let corpus : string array ref = ref [||] in
  let record_path p =
    Hashtbl.replace path_freq p ((match Hashtbl.find_opt path_freq p with Some n -> n | None -> 0) + 1)
  in
  let compiled = Compile.compile prog in
  let execute input =
    incr execs;
    let info = Coverage.run ~max_steps:config.exec_max_steps ~compiled cov prog ~input in
    record_path info.path_hash;
    if !found = None && Interp.crash_in info.result ~funcs:crash_in then found := Some input;
    if info.new_buckets > 0 then begin
      Queue.add { data = input; fuzz_count = 0; path = info.path_hash } queue;
      corpus := Array.append !corpus [| input |]
    end;
    info
  in
  List.iter (fun s -> ignore (execute s)) seeds;
  (* Deterministic first pass over the initial corpus, as AFL does. *)
  let det_budget = ref config.deterministic_limit in
  List.iter
    (fun s ->
      Seq.iter
        (fun m ->
          if !det_budget > 0 && !found = None && !execs < config.max_execs then begin
            decr det_budget;
            ignore (execute m)
          end)
        (Mutate.deterministic s))
    seeds;
  (* Main havoc loop with the AFLFast exponential schedule. *)
  while !found = None && !execs < config.max_execs && not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let freq = match Hashtbl.find_opt path_freq s.path with Some n -> max n 1 | None -> 1 in
    let energy =
      min config.max_energy (max 1 ((1 lsl min s.fuzz_count 9) / freq * 8))
    in
    s.fuzz_count <- s.fuzz_count + 1;
    let i = ref 0 in
    while !i < energy && !found = None && !execs < config.max_execs do
      incr i;
      let mutant =
        if Array.length !corpus > 1 && Rng.int rng 4 = 0 then
          Mutate.splice rng s.data (Rng.choose rng !corpus)
        else Mutate.havoc rng s.data
      in
      ignore (execute mutant)
    done;
    Queue.add s queue
  done;
  {
    crash_input = !found;
    execs = !execs;
    elapsed_s = Unix.gettimeofday () -. t0;
    coverage = Coverage.covered cov;
    queue_len = Queue.length queue;
  }
