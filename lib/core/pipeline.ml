(* The paper's pipeline (§III): preprocessing, P1 taint, P2/P3 directed
   symbolic execution with bunch placement, P4 replay, and the escalated
   retry around one attempt. *)

open Octo_vm
open Verdict
module Expr = Octo_solver.Expr
module Solve = Octo_solver.Solve
module Cfg = Octo_cfg.Cfg
module Clone = Octo_clone.Clone
module Deadline = Octo_util.Deadline
module Faultinject = Octo_util.Faultinject
module Trace = Octo_util.Trace

(* P4's crash-site fault text.  A hang the VM proved periodic names the
   proof, so the verdict visibly rests on non-termination rather than on
   a slow T running out of steps. *)
let fault_text (r : Interp.result) (c : Interp.crash) =
  match r.cycle with
  | Some (m, l) ->
      Printf.sprintf "hang (step budget exhausted; proven cycle, period %d steps from step %d)" l m
  | None -> Fmt.str "%a" Mem.pp_fault c.fault

let identify_ep ~(ell : string list) (crash : Interp.crash) : string option =
  List.find_opt (fun f -> List.mem f ell) crash.backtrace

(* P3: the bunch-placement callback run at every ep entry of T's symbolic
   execution.

   The pin ledger — what each constraint WE added means (which bunch byte,
   which replayed argument) — is threaded through the callback as the
   state's {!Directed.on_ep} value, so that a conflict at entry k can label
   a core drawn from the whole store.  It travels with the symbolic state:
   a fresh state starts from [], and a loop retry resumed from a snapshot
   carries the ledger of that snapshot, not the dead attempt's suffix.
   Filled only with provenance on. *)
type pin_ledger = (Provenance.origin * Expr.cond) list

let place_bunches (bunches : Taint.bunch list) : pin_ledger Directed.on_ep =
 fun st ledger ~count ~args ~file_pos ->
  let pins = ref ledger in
  let action =
    Trace.with_span Trace.Combine "place-bunch" @@ fun () ->
    let prov_on = Provenance.is_on () in
    match List.nth_opt bunches (count - 1) with
    | None -> Directed.Stop
    | Some (b : Taint.bunch) ->
        (* Each entry's pins are one incremental transaction on the live
           store: propagation reuses every narrowing performed by the path
           constraints (and earlier pins) instead of re-propagating from
           scratch, and a conflicting batch is rolled back to the exact
           pre-entry state after the core has been extracted. *)
        let scope = Solve.push_scope st.store in
        let ok = ref true in
        let nbytes = ref 0 and nargs = ref 0 in
        let add origin c =
          if !ok then begin
            if prov_on then pins := (origin, c) :: !pins;
            match Solve.add st.store c with Solve.Ok -> () | Solve.Unsat -> ok := false
          end
        in
        (* Replay the ep arguments that were input-derived in S: OCTOPOCS
           "executes ep in T with the same parameters as those used in S". *)
        List.iteri
          (fun i (v, tainted) ->
            if tainted then
              match List.nth_opt args i with
              | Some ae ->
                  incr nargs;
                  add
                    (Provenance.Replayed_arg { bunch = count; arg = i; value = v })
                    { Expr.rel = Eq; lhs = ae; rhs = Expr.const v }
              | None -> ())
          b.ep_args;
        (* Pin the bunch bytes relative to the file position indicator
           (paper Fig. 5: "sym[5:9] == 0x41"-style constraints).

           Context-aware bunches keep each primitive at its offset relative to
           the entry's anchor.  A merged (context-free) bunch has no per-entry
           anchors, so its post-anchor primitives are located "at once":
           consecutively from the indicator — the Table III failure mode. *)
        let place tgt v =
          if tgt < 0 then ok := false
          else begin
            st.max_read_off <- max st.max_read_off (tgt + 1);
            incr nbytes;
            add
              (Provenance.Bunch_byte { bunch = count; off = tgt; value = v })
              { Expr.rel = Eq; lhs = Expr.byte tgt; rhs = Expr.const v }
          end
        in
        if b.merged then begin
          let rank = ref 0 in
          List.iter
            (fun (off, v) ->
              if !ok then
                if off < b.anchor then place (file_pos + (off - b.anchor)) v
                else begin
                  place (file_pos + !rank) v;
                  incr rank
                end)
            b.prims
        end
        else
          List.iter
            (fun (off, v) -> if !ok then place (file_pos + (off - b.anchor)) v)
            b.prims;
        if not !ok then begin
          (* Conflict evidence: minimize the store (T's path constraints
             plus our pins — the failing constraint is still in it) to a
             core, then label each member against the pin ledger.  Only
             paid on the conflict path, and only with provenance on. *)
          if prov_on then begin
            let core = Solve.unsat_core (Solve.constraints st.store) in
            let entries =
              List.map
                (fun c ->
                  let origin =
                    match List.find_opt (fun (_, pc) -> pc = c) !pins with
                    | Some (o, _) -> o
                    | None -> Provenance.Path_constraint
                  in
                  { Provenance.origin; cond = Fmt.str "%a" Expr.pp_cond c })
                core
            in
            Provenance.emit (Provenance.Conflict { seq = count; core = entries })
          end;
          (* Core extraction above ran against the scoped store (pins
             included); only now roll the failed batch back. *)
          Solve.pop_scope st.store scope;
          Directed.Conflict
        end
        else begin
          Solve.commit_scope st.store scope;
          if prov_on then
            Provenance.emit
              (Provenance.Bunch_pinned
                 { seq = count; file_pos; nbytes = !nbytes; args_replayed = !nargs });
          if count >= List.length bunches then Directed.Stop else Directed.Continue
        end
  in
  (action, !pins)

(* P3's model-search node budget.  Concrete runs (S's crash run, P4's
   replays) take the VM's own [Interp.default_max_steps]. *)
let solver_budget = 400_000

let poc_of_model (model : Solve.model) ~length =
  String.init length (fun i -> Char.chr (Solve.model_byte model i land 0xff))

type config = {
  taint_mode : Taint.mode;
  taint_granularity : Taint.granularity;
  symex : Directed.config;
  dynamic_cfg : bool;
      (** when static CFG recovery fails on an unresolvable indirect call
          (the paper's Idx-15 angr defect), fall back to the dynamic CFG:
          replay T on the PoC, record indirect-call targets, and
          devirtualize ({!Octo_cfg.Devirt}) before retrying.  Off by
          default to reproduce the paper's Failure row. *)
  deadline_s : float option;
      (** wall-clock budget for one [run], enforced cooperatively at
          VM-step / symex-step / solver-node granularity.  [None] (default)
          never expires; expiry yields [Failure "deadline exceeded: ..."],
          never an escaped exception. *)
  inject : Faultinject.t;
      (** deterministic fault injector for the chaos harness;
          {!Faultinject.none} (default) costs one tag test per site. *)
}

let default_config =
  {
    taint_mode = Taint.Context_aware;
    taint_granularity = Taint.Byte_level;
    symex = Directed.default_config;
    dynamic_cfg = false;
    deadline_s = None;
    inject = Faultinject.none;
  }

(* ------------------------------------------------------------------ *)
(* What a job derives from its programs.

   S's and T's compiled code, ℓ and T's static CFG per ep depend only on
   the job's programs (and ep), so the job holds them: an attempt builds
   each on first use and every later attempt of the same job (an
   escalated retry, a worker-crash retry, the next pass over a batch)
   takes it from there.  Nothing is process-wide, so a one-shot job's
   products die with the job.  Every value is immutable; domains racing
   on one record may each build a product, and the first to land is kept
   and returned to all. *)

type products = {
  s_code : Compile.compiled option Atomic.t;
  t_code : Compile.compiled option Atomic.t;
  ell_found : string list option Atomic.t;  (* ℓ by clone detection *)
  cfgs : (string * Cfg.t) list Atomic.t;  (* T's static CFG per ep *)
}

let products () =
  {
    s_code = Atomic.make None;
    t_code = Atomic.make None;
    ell_found = Atomic.make None;
    cfgs = Atomic.make [];
  }

let compiled_t pr = Atomic.get pr.t_code
let seed_ell pr ell = ignore (Atomic.compare_and_set pr.ell_found None (Some ell))

(* The product [find] sees in [slot], else [build ()], stored with [add].
   Under a race the first value to land is kept and returned to every
   racer; a [build] that raises stores nothing. *)
let product slot ~find ~add build =
  match find (Atomic.get slot) with
  | Some v ->
      Metrics.incr Metrics.Cache_hits;
      v
  | None ->
      let v = build () in
      let rec keep () =
        let held = Atomic.get slot in
        match find held with
        | Some kept -> kept
        | None -> if Atomic.compare_and_set slot held (add held v) then v else keep ()
      in
      keep ()

let once slot build = product slot ~find:Fun.id ~add:(fun _ v -> Some v) build

(* ------------------------------------------------------------------ *)
(* The S side of a pair.

   Preprocessing (crash S, pick ep) and P1 taint depend only on S, the
   PoC and ep; only P2-P4 depend on T.  A probe holds that S side so the
   Ts it is verified against can share it: S's concrete run and a taint
   result per (ep, mode, granularity).  Every kept value is immutable.
   Under an enabled fault injector a probe neither reuses nor keeps
   anything: each attempt owns its fault schedule, and a skipped S run
   would skip its draws. *)

type probe = {
  ps : Isa.program;
  ppoc : string;
  mutable crash_run : Interp.result option;
  mutable taints : ((string * Taint.mode * Taint.granularity) * Taint.result) list;
}

let reuse_probe held ~s ~poc =
  match held with
  | Some p when p.ps == s && p.ppoc = poc -> p
  | _ -> { ps = s; ppoc = poc; crash_run = None; taints = [] }

let probe ~s ~poc = reuse_probe None ~s ~poc

(* Drops everything memoized, leaving the probe as fresh as a new one. *)
let forget p =
  p.crash_run <- None;
  p.taints <- []

(* S's run on the PoC (preprocessing), with S's compilation when it ran
   here. *)
let crash_run p pr ~deadline ~inject =
  let keep = not (Faultinject.enabled inject) in
  match p.crash_run with
  | Some r when keep -> (None, r)
  | _ ->
      let cs = once pr.s_code (fun () -> Compile.compile p.ps) in
      let r = Compile.run ~deadline ~inject cs ~input:p.ppoc in
      if keep then p.crash_run <- Some r;
      (Some cs, r)

(* P1: crash-primitive extraction for [ep], on [cs] when S was compiled
   for this attempt's crash run. *)
let taint_of p pr ~(config : config) ~cs ~ep =
  let keep = not (Faultinject.enabled config.inject) in
  let key = (ep, config.taint_mode, config.taint_granularity) in
  match List.assoc_opt key p.taints with
  | Some r when keep -> r
  | _ ->
      let compiled =
        match cs with Some c -> c | None -> once pr.s_code (fun () -> Compile.compile p.ps)
      in
      let r =
        Trace.with_span Trace.Taint "extract" @@ fun () ->
        Taint.extract ~mode:config.taint_mode ~granularity:config.taint_granularity ~compiled
          p.ps ~poc:p.ppoc ~ep
      in
      if keep then p.taints <- (key, r) :: p.taints;
      r

(* P2 prerequisite: CFG recovery; its static failure is the paper's
   Idx-15 tool-failure mode.  With [dynamic_cfg] the pipeline repairs it
   by devirtualizing against observed call targets, and returns the
   degradation it applied: symbolic execution then runs on the repaired
   binary while P4 verifies against the original. *)
let recover_cfg ~(config : config) pr t ~ep ~poc =
  Trace.with_span Trace.Cfg "build" @@ fun () ->
  (* T's static CFG for [ep]; a failed build keeps nothing. *)
  match
    product pr.cfgs ~find:(List.assoc_opt ep) ~add:(fun l cfg -> (ep, cfg) :: l) (fun () ->
        Cfg.build t ~ep)
  with
  | cfg -> Ok (t, cfg, [])
  | exception Cfg.Cfg_error msg when config.dynamic_cfg -> (
      let observed = Octo_cfg.Dyncfg.observe t ~seeds:[ poc ] in
      let t' = Octo_cfg.Devirt.apply t ~observed in
      match Cfg.build t' ~ep with
      | cfg ->
          if Provenance.is_on () then
            Provenance.emit
              (Provenance.Rung { rung = "dynamic-cfg"; failure = "CFG recovery failed: " ^ msg });
          Ok (t', cfg, [ "dynamic-cfg" ])
      | exception Cfg.Cfg_error msg2 -> Error (msg ^ "; dynamic CFG also failed: " ^ msg2))
  | exception Cfg.Cfg_error msg -> Error msg

let emit_bunches (bunches : Taint.bunch list) =
  List.iter
    (fun (b : Taint.bunch) ->
      Provenance.emit
        (Provenance.Taint_bunch
           {
             seq = b.seq;
             anchor = b.anchor;
             ranges = Provenance.ranges_of_offsets (List.map fst b.prims);
             tainted_args =
               List.mapi (fun i (_, tainted) -> if tainted then i else -1) b.ep_args
               |> List.filter (fun i -> i >= 0);
             sites = b.sites;
           }))
    bunches

let symex_hooks () =
  {
    Directed.on_forced =
      (fun ~func ~pc ~preferred_taken ->
        Provenance.emit (Provenance.Branch_forced { func; pc; preferred_taken }));
    on_pruned = (fun ~func ~pc -> Provenance.emit (Provenance.Path_pruned { func; pc }));
    on_loop_retry =
      (fun ~func ~pc ~granted ~theta ->
        Provenance.emit (Provenance.Loop_retry { func; pc; granted; theta }));
  }

(* One full pipeline pass under a fixed configuration and deadline, T side
   against probe [p]: straight-line stages, each of which may [stop] with
   a verdict.  Whatever the stages before an exit produced goes into the
   report.  The public {!verify} wraps this with deadline construction,
   exception containment and the escalated retry, and fills in the
   timing, metrics and provenance. *)
let pass ~(config : config) ~(deadline : Deadline.t) ?ell (pr : products) (p : probe)
    ~(t : Isa.program) () : report =
  let inject = config.inject and poc = p.ppoc in
  let ell =
    match ell with
    | Some l -> l
    | None ->
        once pr.ell_found (fun () -> Clone.ell_names (Clone.shared_functions p.ps t))
  in
  let ep = ref "" and taint = ref None and symex = ref None and degradations = ref [] in
  let exception Stop of verdict in
  let stop v = raise_notrace (Stop v) in
  let verdict =
    try
      if ell = [] then stop (Failure "no shared functions between S and T");
      (* Preprocessing: crash S, pick ep from the backtrace. *)
      Faultinject.maybe_raise inject Faultinject.Deadline_expiry ~what:"preprocessing";
      let cs, s_run = crash_run p pr ~deadline ~inject in
      let crash =
        match s_run.outcome with
        | Interp.Crashed c -> c
        | Interp.Exited _ -> stop (Failure "poc does not crash S")
      in
      (ep :=
         match identify_ep ~ell crash with
         | Some ep -> ep
         | None -> stop (Failure "crash occurred outside the shared code ℓ"));
      (* P1: crash-primitive extraction. *)
      Deadline.check deadline ~what:"taint analysis";
      let tr = taint_of p pr ~config ~cs ~ep:!ep in
      taint := Some tr;
      if Provenance.is_on () then emit_bunches tr.bunches;
      if tr.bunches = [] then stop (Failure "taint analysis produced no crash primitives");
      let t_sym, cfg =
        match recover_cfg ~config pr t ~ep:!ep ~poc with
        | Ok (t_sym, cfg, applied) ->
            degradations := applied;
            (t_sym, cfg)
        | Error msg -> stop (Failure ("CFG recovery failed: " ^ msg))
      in
      if not (Cfg.ep_called_somewhere t_sym ~ep:!ep) then stop (Not_triggerable Ep_not_called);
      (* P2 + P3: directed symbolic execution with bunch placement at every
         ep entry. *)
      Faultinject.maybe_raise inject Faultinject.Deadline_expiry
        ~what:"directed symbolic execution";
      let hooks = if Provenance.is_on () then Some (symex_hooks ()) else None in
      let outcome, stats =
        Trace.with_span Trace.Symex "directed" @@ fun () ->
        Directed.run ~config:config.symex ?probe:hooks ~deadline t_sym ~ep:!ep ~cfg ~ledger:[]
          ~on_ep:(place_bunches tr.bunches)
      in
      symex := Some stats;
      let st =
        match outcome with
        | Directed.Reached st -> st
        | Directed.Failed Directed.Ep_not_in_cfg -> stop (Not_triggerable Ep_not_called)
        | Directed.Failed Directed.Program_dead -> stop (Not_triggerable Program_dead)
        | Directed.Failed (Directed.Constraint_conflict k) ->
            stop (Not_triggerable (Constraint_conflict k))
        | Directed.Failed (Directed.Budget_exhausted what) ->
            stop (Failure ("symbolic execution budget exhausted: " ^ what))
      in
      let model =
        match Solve.solve ~budget:solver_budget ~deadline ~inject st.store with
        | Solve.Sat model -> model
        | Solve.Unsat_result -> stop (Not_triggerable Unsat_model)
        | Solve.Unknown -> stop (Failure "constraint solver budget exhausted")
      in
      (* P4: verification. *)
      Faultinject.maybe_raise inject Faultinject.Deadline_expiry ~what:"verification";
      let poc' = poc_of_model model ~length:st.max_read_off in
      let ct = once pr.t_code (fun () -> Compile.compile t) in
      let t_run =
        Trace.with_span Trace.Verify "replay-poc'" @@ fun () ->
        Compile.run ~deadline ~inject ct ~input:poc'
      in
      (match t_run.outcome with
      | Interp.Crashed c when Provenance.is_on () ->
          Provenance.emit
            (Provenance.Crash_site
               {
                 func = c.crash_func;
                 pc = c.crash_pc;
                 fault = fault_text t_run c;
                 in_ell = List.mem c.crash_func ell;
               })
      | _ -> ());
      if not (Interp.crash_in t_run ~funcs:ell) then
        stop (Failure "generated poc' did not reproduce the crash in T");
      (* Type-I iff the original poc already works on T (its guiding input
         needed no reform). *)
      let orig =
        Trace.with_span Trace.Verify "replay-poc" @@ fun () ->
        Compile.run ~deadline ~inject ct ~input:poc
      in
      Triggered { poc'; ptype = (if Interp.crash_in orig ~funcs:ell then Type_I else Type_II) }
    with Stop v -> v
  in
  let bunches = match !taint with Some (tr : Taint.result) -> tr.bunches | None -> [] in
  { (failure_report "") with verdict; ep = !ep; ell; bunches; taint = !taint; symex = !symex;
    degradations = !degradations }

(* ------------------------------------------------------------------ *)
(* Escalated retry. *)

(* A failure is rescuable when a retry with more budget could plausibly
   change the verdict.  Semantic failures — no shared code, PoC does not
   crash S, CFG recovery failed, poc' did not reproduce — are facts about
   the pair, not about resource limits, and are returned as-is. *)
let rescuable_failure msg =
  List.exists
    (fun prefix -> String.starts_with ~prefix msg)
    [
      "symbolic execution budget exhausted";
      "deadline exceeded";
      "constraint solver budget exhausted";
    ]

(* The retry's config: every symex budget multiplied. *)
let escalate (config : config) : config =
  let sx = config.symex in
  {
    config with
    symex =
      { Directed.theta = sx.theta * 4; max_runs = sx.max_runs * 8; max_steps = sx.max_steps * 4 };
  }

let verify ?(config = default_config) ?ell ?(products = products ()) (p : probe)
    ~(t : Isa.program) () : report =
  let t_start = Unix.gettimeofday () in
  let deadline =
    match config.deadline_s with
    | None -> Deadline.none
    | Some seconds -> Deadline.after ~seconds
  in
  let failed msg =
    forget p;
    failure_report msg
  in
  let attempt cfg =
    match pass ~config:cfg ~deadline ?ell products p ~t () with
    | r -> r
    | exception Deadline.Deadline_exceeded what -> failed ("deadline exceeded: " ^ what)
    | exception Faultinject.Injected what -> failed ("injected fault: " ^ what)
  in
  (* The whole pair — first attempt plus any retry — is one trace
     envelope (cat "pair"), one metrics scope and one provenance scope, so
     report.metrics / report.provenance are the per-pair records of the
     domain that ran it. *)
  let (r, m), pv =
    Provenance.scoped @@ fun () ->
    Metrics.scoped @@ fun () ->
    Trace.with_cat_span ~cat:"pair" ~name:"pipeline" @@ fun () ->
    let r0 = attempt config in
    match r0.verdict with
    | Failure msg when rescuable_failure msg && not (Deadline.expired deadline) ->
        let rung = "symex-escalate" in
        if Provenance.is_on () then Provenance.emit (Provenance.Rung { rung; failure = msg });
        let r = attempt (escalate config) in
        (* A failed retry leaves the first attempt's failure, the honest one. *)
        let r = match r.verdict with Failure _ -> r0 | _ -> r in
        { r with degradations = r.degradations @ [ rung ] }
    | _ -> r0
  in
  { r with elapsed_s = Unix.gettimeofday () -. t_start; metrics = m; provenance = pv }

let run ?config ?ell ~(s : Isa.program) ~(t : Isa.program) ~(poc : string) () : report =
  verify ?config ?ell (probe ~s ~poc) ~t ()
