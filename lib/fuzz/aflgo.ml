(** AFLGo-style directed greybox fuzzer (Böhme et al., the second Table V
    baseline).

    Seeds are scored by the distance of their execution to the target
    function (our {!Octo_cfg.Cfg} distance map stands in for AFLGo's
    LLVM-computed function/basic-block distances), and a simulated-annealing
    power schedule shifts energy toward close seeds as the campaign
    progresses — exploration first, exploitation later.

    Faithful to the paper's experience (Table V, MuPDF row), the
    instrumentation pass has a tool limitation: binaries containing indirect
    calls make it bail out with {!Aflgo_error}. *)

open Octo_vm
module Rng = Octo_util.Rng
module Cfg = Octo_cfg.Cfg

exception Aflgo_error of string

type config = {
  max_execs : int;
  rng_seed : int;
  max_energy : int;
  exec_max_steps : int;
  exploration : float;  (** fraction of the budget spent in exploration *)
}

let default_config =
  { max_execs = 150_000; rng_seed = 0xAF160; max_energy = 256; exec_max_steps = 60_000;
    exploration = 0.5 }

type seed = {
  data : string;
  distance : float;   (** mean distance of the execution to the target *)
}

type result = {
  crash_input : string option;
  execs : int;
  elapsed_s : float;
  coverage : int;
  best_distance : float;
}

let check_instrumentable (prog : Isa.program) =
  Hashtbl.iter
    (fun _ (f : Isa.func) ->
      Array.iter
        (function
          | Isa.Icall _ ->
              raise
                (Aflgo_error
                   (Printf.sprintf "distance instrumentation failed on %s: indirect call in %s"
                      prog.pname f.fname))
          | _ -> ())
        f.code)
    prog.funcs

(** [run ?config prog ~target ~seeds ~crash_in] fuzzes toward [target]. *)
let run ?(config = default_config) (prog : Isa.program) ~(target : string)
    ~(seeds : string list) ~(crash_in : string list) : result =
  check_instrumentable prog;
  let t0 = Unix.gettimeofday () in
  let cfg = Cfg.build ~allow_unresolved:true prog ~ep:target in
  let rng = Rng.create config.rng_seed in
  let cov = Coverage.create () in
  let execs = ref 0 in
  let found = ref None in
  let queue : seed Queue.t = Queue.create () in
  let best = ref infinity in
  let compiled = Compile.compile prog in
  let execute input =
    incr execs;
    (* Collect the distance of every executed location to the target. *)
    let dist_sum = ref 0.0 and dist_n = ref 0 in
    let hooks =
      {
        Interp.no_hooks with
        on_edge =
          (fun fname _ to_pc ->
            let d = Cfg.distance cfg fname to_pc in
            if d < Cfg.infinity then begin
              dist_sum := !dist_sum +. float_of_int d;
              incr dist_n
            end);
      }
    in
    let info =
      let hit = Hashtbl.create 64 in
      let hooks =
        { hooks with
          on_edge =
            (fun fname from_pc to_pc ->
              hooks.on_edge fname from_pc to_pc;
              Hashtbl.replace hit (Coverage.bucket_of ~fname ~from_pc ~to_pc) ()) }
      in
      let result = Compile.run ~hooks ~max_steps:config.exec_max_steps compiled ~input in
      let fresh = ref 0 in
      Hashtbl.iter
        (fun b () ->
          if Bytes.get cov.virgin b = '\000' then begin
            Bytes.set cov.virgin b '\001';
            incr fresh
          end)
        hit;
      (result, !fresh)
    in
    let result, fresh = info in
    if !found = None && Interp.crash_in result ~funcs:crash_in then found := Some input;
    let d = if !dist_n = 0 then infinity else !dist_sum /. float_of_int !dist_n in
    best := min !best d;
    if fresh > 0 then Queue.add { data = input; distance = d } queue
  in
  List.iter execute seeds;
  while !found = None && !execs < config.max_execs && not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    (* Annealing: progress 0 -> uniform low energy (exploration); progress
       1 -> energy proportional to closeness (exploitation). *)
    let progress = float_of_int !execs /. float_of_int config.max_execs in
    let closeness =
      if s.distance = infinity then 0.0
      else 1.0 /. (1.0 +. (s.distance /. 16.0))
    in
    let energy =
      if progress < config.exploration then 2
      else
        max 1
          (int_of_float
             (float_of_int config.max_energy *. closeness *. (progress -. config.exploration)
             /. (1.0 -. config.exploration)))
    in
    let i = ref 0 in
    while !i < energy && !found = None && !execs < config.max_execs do
      incr i;
      execute (Mutate.havoc rng s.data)
    done;
    Queue.add s queue
  done;
  {
    crash_input = !found;
    execs = !execs;
    elapsed_s = Unix.gettimeofday () -. t0;
    coverage = Coverage.covered cov;
    best_distance = !best;
  }
