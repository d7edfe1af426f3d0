(** OCTOPOCS: verification of propagated vulnerable code by PoC reforming.

    This is the paper's primary contribution (§III), assembled from the
    substrate libraries:

    - {b Preprocessing}: find ℓ with {!Octo_clone.Clone} and identify [ep]
      from the crash backtrace of S running [poc].
    - {b P1}: extract crash primitives with context-aware taint analysis
      ({!Octo_taint.Taint}).
    - {b P2}: generate guiding inputs with directed symbolic execution
      ({!Octo_symex.Directed} over {!Octo_cfg.Cfg}).
    - {b P3}: combine — at every [ep] entry of T's symbolic execution, pin
      the corresponding bunch at the file position indicator and replay the
      tainted [ep] arguments; then solve for [poc'].
    - {b P4}: verify by running T on [poc'] and checking for a crash inside
      ℓ.

    The verdicts mirror the paper's result classes: Type-I/II (triggered),
    Type-III (verified not triggerable, cases i-iii of §III-D), and Failure
    (tool error, e.g. CFG recovery). *)

open Octo_vm
module Expr = Octo_solver.Expr
module Solve = Octo_solver.Solve
module Taint = Octo_taint.Taint
module Cfg = Octo_cfg.Cfg
module Directed = Octo_symex.Directed
module Sym_state = Octo_symex.Sym_state
module Clone = Octo_clone.Clone
module Deadline = Octo_util.Deadline
module Faultinject = Octo_util.Faultinject
module Log = Octo_util.Log
module Metrics = Octo_util.Metrics
module Sandbox = Octo_util.Sandbox
module Telemetry = Octo_util.Telemetry
module Trace = Octo_util.Trace
module Provenance = Provenance

type not_triggerable_reason =
  | Ep_not_called           (** verification case (ii) *)
  | Program_dead            (** verification case (iii) *)
  | Constraint_conflict of int
      (** bunch bytes or replayed ep arguments conflict with T's path
          constraints at the given entry — e.g. a patched guard or a
          hardcoded argument *)
  | Unsat_model             (** combined constraints admit no concrete poc' *)

type poc_type = Type_I | Type_II

type verdict =
  | Triggered of { poc' : string; ptype : poc_type }
  | Not_triggerable of not_triggerable_reason
  | Failure of string

type report = {
  verdict : verdict;
  ep : string;
  ell : string list;               (** shared functions (T-side names) *)
  bunches : Taint.bunch list;
  taint : Taint.result option;
  symex : Directed.stats option;
  degradations : string list;
      (** every degradation rung the pipeline climbed to produce this
          verdict, in the order applied: ["dynamic-cfg"], ["symex-escalate"],
          ["symex-escalate"; "sym-file-degrade"], ...  Empty for a clean
          first-attempt run. *)
  elapsed_s : float;
  metrics : Metrics.snapshot option;
      (** per-pair metrics delta (counters and per-phase latency) recorded
          by the domain that ran this pair, when collection was enabled
          ([--metrics] / {!Metrics.enable}); [None] otherwise.  Journaled
          alongside the verdict. *)
  provenance : Provenance.t option;
      (** per-pair causal evidence log recorded when collection was
          enabled ([--provenance] / {!Provenance.enable}); [None]
          otherwise.  Journaled as an optional OPR3 tail field and
          rendered by {!explain_report} / the [explain] subcommand. *)
}

let pp_reason ppf = function
  | Ep_not_called -> Fmt.pf ppf "ep is never called in T"
  | Program_dead -> Fmt.pf ppf "program-dead state: ℓ unreachable"
  | Constraint_conflict k -> Fmt.pf ppf "constraints conflict at ep entry #%d" k
  | Unsat_model -> Fmt.pf ppf "no concrete input satisfies the combined constraints"

let pp_verdict ppf = function
  | Triggered { ptype = Type_I; poc' } ->
      Fmt.pf ppf "TRIGGERED (Type-I, %d-byte poc')" (String.length poc')
  | Triggered { ptype = Type_II; poc' } ->
      Fmt.pf ppf "TRIGGERED (Type-II, %d-byte poc')" (String.length poc')
  | Not_triggerable r -> Fmt.pf ppf "NOT TRIGGERABLE (%a)" pp_reason r
  | Failure msg -> Fmt.pf ppf "FAILURE: %s" msg

let verdict_class = function
  | Triggered { ptype = Type_I; _ } -> "Type-I"
  | Triggered { ptype = Type_II; _ } -> "Type-II"
  | Not_triggerable _ -> "Type-III"
  | Failure _ -> "Failure"

(** [conflict_detail prov] distills the last P3 conflict of a provenance
    log into one sentence: which bunch bytes (or replayed arguments) clash
    with which of T's own path constraints.  [None] when no provenance or
    no conflict was recorded. *)
let conflict_detail (prov : Provenance.t option) : string option =
  match prov with
  | None -> None
  | Some p -> (
      match Provenance.last_conflict p with
      | None -> None
      | Some (seq, []) ->
          (* No minimized core: the placement itself was impossible (a
             primitive lands before the file-position indicator, offset
             < 0) — there is no constraint to blame. *)
          Some
            (Fmt.str "bunch %d could not be placed: a primitive precedes the file-position \
                      indicator" seq)
      | Some (seq, core) -> (
          let pins, path =
            List.partition
              (fun (e : Provenance.core_entry) -> e.origin <> Provenance.Path_constraint)
              core
          in
          let pp_pin ppf (e : Provenance.core_entry) = Provenance.pp_origin ppf e.origin in
          let pins_s =
            match pins with
            | [] -> Fmt.str "bunch %d" seq
            | _ -> Fmt.str "%a" Fmt.(list ~sep:(any " + ") pp_pin) pins
          in
          match path with
          | [] -> Some (Fmt.str "%s: the pinned constraints contradict each other" pins_s)
          | e :: _ -> Some (Fmt.str "%s clashes with T's path constraint `%s`" pins_s e.cond)))

(** [pp_verdict_prov prov ppf v] is {!pp_verdict} upgraded with provenance:
    a [Constraint_conflict] verdict additionally names the conflicting
    bunch bytes and the T-side constraint when a conflict core was
    recorded.  Identical to {!pp_verdict} without provenance. *)
let pp_verdict_prov prov ppf v =
  match v with
  | Not_triggerable (Constraint_conflict k) -> (
      match conflict_detail prov with
      | Some d ->
          Fmt.pf ppf "NOT TRIGGERABLE (constraints conflict at ep entry #%d: %s)" k d
      | None -> pp_verdict ppf v)
  | _ -> pp_verdict ppf v

(** [explain_report ~label r] renders the deterministic, diffable
    explanation narrative for one verified pair: header, then one section
    per pipeline phase listing that phase's provenance events, the
    expanded minimized core of the last conflict (if any), and the ladder
    rungs.  Contains no timings, addresses or other run-varying data —
    two runs of the same pair produce byte-identical output, which is
    what the golden tests pin. *)
let explain_report ~label (r : report) : string =
  let b = Buffer.create 1024 in
  let pf fmt = Fmt.kstr (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  pf "OCTOPOCS explanation — %s" label;
  pf "verdict : %a" (pp_verdict_prov r.provenance) r.verdict;
  pf "class   : %s" (verdict_class r.verdict);
  if r.ep <> "" then pf "ep      : %s" r.ep;
  if r.ell <> [] then pf "ℓ       : %s" (String.concat ", " r.ell);
  (match r.verdict with
  | Triggered { poc'; _ } ->
      pf "poc'    : %d bytes, md5 %s" (String.length poc')
        (Digest.to_hex (Digest.string poc'))
  | _ -> ());
  (match r.provenance with
  | None ->
      pf "";
      pf "no provenance recorded — `explain PAIR` enables collection itself; journaled \
          records carry provenance only when the run used --provenance (pre-OPR3 journals \
          never do)"
  | Some p ->
      let section title pred =
        let evs = List.filter pred p.Provenance.events in
        pf "";
        pf "%s" title;
        if evs = [] then pf "  (nothing recorded)"
        else begin
          (* Cap each section so loop-heavy pairs stay readable; the cap
             is deterministic, and the summary line keeps the total. *)
          let cap = 12 in
          List.iteri (fun i ev -> if i < cap then pf "  %a" Provenance.pp_event ev) evs;
          let extra = List.length evs - cap in
          if extra > 0 then pf "  ... (+%d more)" extra
        end
      in
      section "P1 — crash primitives (taint)" (function
        | Provenance.Taint_bunch _ -> true
        | _ -> false);
      section "P2 — directed path search" (function
        | Provenance.Branch_forced _ | Provenance.Loop_retry _ | Provenance.Path_pruned _ ->
            true
        | _ -> false);
      section "P3 — combine (bunch pinning)" (function
        | Provenance.Bunch_pinned _ | Provenance.Conflict _ -> true
        | _ -> false);
      (match Provenance.last_conflict p with
      | None -> ()
      | Some (seq, core) ->
          pf "  minimized conflicting core for bunch %d:" seq;
          if core = [] then
            pf "    (empty: a primitive precedes the file-position indicator)"
          else
            List.iter
              (fun (e : Provenance.core_entry) ->
                pf "    %a: `%s`" Provenance.pp_origin e.origin e.cond)
              core;
          (match conflict_detail r.provenance with
          | Some d -> pf "  => %s" d
          | None -> ()));
      section "P4 — verification" (function
        | Provenance.Crash_site _ -> true
        | _ -> false);
      section "degradation ladder" (function Provenance.Rung _ -> true | _ -> false);
      pf "";
      pf "degradations: %s"
        (match r.degradations with [] -> "(none)" | ds -> String.concat "," ds);
      pf "provenance  : %d event(s), %d dropped" (Provenance.event_count p)
        p.Provenance.dropped);
  Buffer.contents b

(* P4's crash-site fault text.  A hang the VM proved periodic names the
   proof, so the verdict visibly rests on non-termination rather than on
   a slow T running out of steps. *)
let fault_text (r : Interp.result) (c : Interp.crash) =
  match r.cycle with
  | Some (m, l) ->
      Printf.sprintf "hang (step budget exhausted; proven cycle, period %d steps from step %d)" l m
  | None -> Fmt.str "%a" Mem.pp_fault c.fault

(** [identify_ep ~ell crash] picks [ep]: the bottom-most function of the
    crash backtrace that belongs to ℓ — i.e. the first ℓ function entered on
    the path to the crash (paper "Preprocessing"). *)
let identify_ep ~(ell : string list) (crash : Interp.crash) : string option =
  List.find_opt (fun f -> List.mem f ell) crash.backtrace

(* P3: the bunch-placement callback run at every ep entry of T's symbolic
   execution.

   Partially applied once per pipeline attempt: the [pins] ledger — what
   each constraint WE added means (which bunch byte, which replayed
   argument) — lives across the entries of one symbolic state so that a
   conflict at entry k can label a core drawn from the whole store.  A
   fresh state re-enters ep from [count = 1], which resets the ledger. *)
let place_bunches (bunches : Taint.bunch list) =
  let pins : (Provenance.origin * Expr.cond) list ref = ref [] in
  fun (st : Sym_state.t) ~count ~args ~file_pos : Directed.ep_action ->
    Trace.with_span Trace.Combine "place-bunch" @@ fun () ->
    let prov_on = Provenance.is_on () in
    if prov_on && count = 1 then pins := [];
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

let poc_of_model (model : Solve.model) ~length =
  String.init length (fun i -> Char.chr (Solve.model_byte model i land 0xff))

type config = {
  taint_mode : Taint.mode;
  taint_granularity : Taint.granularity;
  symex : Directed.config;
  sym_file_size : int;
  max_steps : int;       (** concrete-run budget (hang detection) *)
  solver_budget : int;
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
  ladder : bool;
      (** climb the degradation ladder on rescuable failures (budget or
          deadline exhaustion): retry with escalated symex budgets, then
          with a degraded symbolic file size.  On by default — no registry
          pair needs rescuing at default budgets, so Table II is
          unchanged. *)
  inject : Faultinject.t;
      (** deterministic fault injector for the chaos harness;
          {!Faultinject.none} (default) costs one tag test per site. *)
  spec_jobs : int;
      (** speculative loop-retry width for P2: with [spec_jobs > 1] (and
          provenance off — speculation is forced off while it is on, since
          the provenance ledger and probe callbacks are serial), the
          directed executor runs up to [spec_jobs - 1] predicted retry
          attempts ahead on the shared pool.  Verdicts, stats and
          deterministic metrics counters are identical to a serial run by
          construction, so this is a speed knob, not a semantic one — it
          is excluded from {!content_key}.  Default 1 (off). *)
}

let default_config =
  {
    taint_mode = Taint.Context_aware;
    taint_granularity = Taint.Byte_level;
    symex = Directed.default_config;
    sym_file_size = Sym_state.default_sym_file_size;
    max_steps = Interp.default_max_steps;
    solver_budget = 400_000;
    dynamic_cfg = false;
    deadline_s = None;
    ladder = true;
    inject = Faultinject.none;
    spec_jobs = 1;
  }

(** [failure_report msg] is the minimal report for a failure that happened
    outside (or instead of) the pipeline proper — a crashed worker, an
    exceeded deadline, an injected fault. *)
let failure_report ?(degradations = []) msg =
  {
    verdict = Failure msg;
    ep = "";
    ell = [];
    bunches = [];
    taint = None;
    symex = None;
    degradations;
    elapsed_s = 0.0;
    metrics = None;
    provenance = None;
  }

(* One full pipeline pass under a fixed configuration and deadline.  The
   public {!run} wraps this with deadline construction, exception
   containment and the degradation ladder. *)
let run_attempt ~(config : config) ~(deadline : Deadline.t) ?ell ~(s : Isa.program)
    ~(t : Isa.program) ~(poc : string) () : report =
  let t_start = Unix.gettimeofday () in
  let inject = config.inject in
  let degraded = ref [] in
  let finish verdict ~ep ~ell ~bunches ~taint ~symex =
    {
      verdict;
      ep;
      ell;
      bunches;
      taint;
      symex;
      degradations = List.rev !degraded;
      elapsed_s = Unix.gettimeofday () -. t_start;
      metrics = None;
      provenance = None;
    }
  in
  (* Canonical content digests, computed once per attempt: the ℓ cache and
     both compilation lookups key off them. *)
  let sdig = Compile.program_digest s in
  let tdig = Compile.program_digest t in
  let ell =
    match ell with
    | Some l -> l
    | None -> Clone.ell_names (Clone.shared_functions_cached ~sdig ~tdig s t)
  in
  if ell = [] then
    finish (Failure "no shared functions between S and T") ~ep:"" ~ell ~bunches:[] ~taint:None
      ~symex:None
  else begin
    (* Preprocessing: crash S, pick ep from the backtrace. *)
    Faultinject.maybe_raise inject Faultinject.Deadline_expiry ~what:"preprocessing";
    let cs = Compile.get ~digest:sdig s in
    let s_run = Compile.run ~max_steps:config.max_steps ~deadline ~inject cs ~input:poc in
    match s_run.outcome with
    | Interp.Exited _ ->
        finish (Failure "poc does not crash S") ~ep:"" ~ell ~bunches:[] ~taint:None ~symex:None
    | Interp.Crashed crash -> (
        match identify_ep ~ell crash with
        | None ->
            finish (Failure "crash occurred outside the shared code ℓ") ~ep:"" ~ell ~bunches:[]
              ~taint:None ~symex:None
        | Some ep -> (
            (* P1: crash-primitive extraction. *)
            Deadline.check deadline ~what:"taint analysis";
            let taint_res =
              Trace.with_span Trace.Taint "extract" @@ fun () ->
              Taint.extract ~mode:config.taint_mode ~granularity:config.taint_granularity
                ~compiled:cs s ~poc ~ep
            in
            let bunches = taint_res.bunches in
            if Provenance.is_on () then
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
                bunches;
            if bunches = [] then
              finish (Failure "taint analysis produced no crash primitives") ~ep ~ell ~bunches
                ~taint:(Some taint_res) ~symex:None
            else begin
              (* P2 prerequisite: CFG recovery; its static failure is the
                 paper's Idx-15 tool-failure mode.  With [dynamic_cfg] the
                 pipeline repairs it by devirtualizing against observed
                 call targets; symbolic execution then runs on the repaired
                 binary while P4 verifies against the original. *)
              let cfg_result =
                Trace.with_span Trace.Cfg "build" @@ fun () ->
                match Cfg.build_cached t ~ep with
                | cfg -> Ok (t, cfg)
                | exception Cfg.Cfg_error msg ->
                    if not config.dynamic_cfg then Error msg
                    else begin
                      let observed = Octo_cfg.Dyncfg.observe t ~seeds:[ poc ] in
                      let t' = Octo_cfg.Devirt.apply t ~observed in
                      match Cfg.build_cached t' ~ep with
                      | cfg ->
                          degraded := "dynamic-cfg" :: !degraded;
                          if Provenance.is_on () then
                            Provenance.emit
                              (Provenance.Rung
                                 { rung = "dynamic-cfg"; failure = "CFG recovery failed: " ^ msg });
                          Ok (t', cfg)
                      | exception Cfg.Cfg_error msg2 ->
                          Error (msg ^ "; dynamic CFG also failed: " ^ msg2)
                    end
              in
              match cfg_result with
              | Error msg ->
                  finish (Failure ("CFG recovery failed: " ^ msg)) ~ep ~ell ~bunches
                    ~taint:(Some taint_res) ~symex:None
              | Ok (t_sym, cfg) ->
                  if not (Cfg.ep_called_somewhere t_sym ~ep) then
                    finish (Not_triggerable Ep_not_called) ~ep ~ell ~bunches
                      ~taint:(Some taint_res) ~symex:None
                  else begin
                    (* P2 + P3: directed symbolic execution with bunch
                       placement at every ep entry. *)
                    Faultinject.maybe_raise inject Faultinject.Deadline_expiry
                      ~what:"directed symbolic execution";
                    let probe =
                      if not (Provenance.is_on ()) then None
                      else
                        Some
                          {
                            Directed.on_forced =
                              (fun ~func ~pc ~preferred_taken ->
                                Provenance.emit
                                  (Provenance.Branch_forced { func; pc; preferred_taken }));
                            on_pruned =
                              (fun ~func ~pc ->
                                Provenance.emit (Provenance.Path_pruned { func; pc }));
                            on_loop_retry =
                              (fun ~func ~pc ~granted ~theta ->
                                Provenance.emit
                                  (Provenance.Loop_retry { func; pc; granted; theta }));
                          }
                    in
                    (* Speculation is gated off whenever a probe exists
                       (provenance on): the pin ledger and probe callbacks
                       assume serial attempts. *)
                    let spec_jobs = if probe = None then config.spec_jobs else 1 in
                    let outcome, stats =
                      Trace.with_span Trace.Symex "directed" @@ fun () ->
                      Directed.run ~config:config.symex ~sym_file_size:config.sym_file_size
                        ?probe ~deadline ~spec_jobs t_sym ~ep ~cfg
                        ~on_ep:(place_bunches bunches)
                    in
                    let symex = Some stats in
                    match outcome with
                    | Directed.Failed Directed.Ep_not_in_cfg ->
                        finish (Not_triggerable Ep_not_called) ~ep ~ell ~bunches
                          ~taint:(Some taint_res) ~symex
                    | Directed.Failed Directed.Program_dead ->
                        finish (Not_triggerable Program_dead) ~ep ~ell ~bunches
                          ~taint:(Some taint_res) ~symex
                    | Directed.Failed (Directed.Constraint_conflict k) ->
                        finish (Not_triggerable (Constraint_conflict k)) ~ep ~ell ~bunches
                          ~taint:(Some taint_res) ~symex
                    | Directed.Failed (Directed.Budget_exhausted what) ->
                        finish (Failure ("symbolic execution budget exhausted: " ^ what)) ~ep
                          ~ell ~bunches ~taint:(Some taint_res) ~symex
                    | Directed.Reached st -> (
                        match Solve.solve ~budget:config.solver_budget ~deadline ~inject st.store with
                        | Solve.Unsat_result ->
                            finish (Not_triggerable Unsat_model) ~ep ~ell ~bunches
                              ~taint:(Some taint_res) ~symex
                        | Solve.Unknown ->
                            finish (Failure "constraint solver budget exhausted") ~ep ~ell
                              ~bunches ~taint:(Some taint_res) ~symex
                        | Solve.Sat model ->
                            (* P4: verification. *)
                            Faultinject.maybe_raise inject Faultinject.Deadline_expiry
                              ~what:"verification";
                            let poc' = poc_of_model model ~length:st.max_read_off in
                            let ct = Compile.get ~digest:tdig t in
                            let t_run =
                              Trace.with_span Trace.Verify "replay-poc'" @@ fun () ->
                              Compile.run ~max_steps:config.max_steps ~deadline ~inject ct
                                ~input:poc'
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
                            if Interp.crash_in t_run ~funcs:ell then begin
                              (* Type-I iff the original poc already works
                                 on T (its guiding input needed no
                                 reform). *)
                              let orig =
                                Trace.with_span Trace.Verify "replay-poc" @@ fun () ->
                                Compile.run ~max_steps:config.max_steps ~deadline ~inject ct
                                  ~input:poc
                              in
                              let ptype =
                                if Interp.crash_in orig ~funcs:ell then Type_I else Type_II
                              in
                              finish (Triggered { poc'; ptype }) ~ep ~ell ~bunches
                                ~taint:(Some taint_res) ~symex
                            end
                            else
                              finish
                                (Failure "generated poc' did not reproduce the crash in T")
                                ~ep ~ell ~bunches ~taint:(Some taint_res) ~symex)
                  end
            end))
  end

(* ------------------------------------------------------------------ *)
(* Degradation ladder. *)

(* A failure is rescuable when a retry with more budget (or less symbolic
   surface) could plausibly change the verdict.  Semantic failures — no
   shared code, PoC does not crash S, CFG recovery failed, poc' did not
   reproduce — are facts about the pair, not about resource limits, and are
   returned as-is. *)
let rescuable_failure msg =
  let pre p = String.length msg >= String.length p && String.sub msg 0 (String.length p) = p in
  pre "symbolic execution budget exhausted"
  || pre "deadline exceeded"
  || pre "constraint solver budget exhausted"

(* The rungs, mildest first.  Escalation multiplies every symex budget;
   degradation additionally shrinks the symbolic file (fewer symbolic bytes
   = smaller constraint stores and cheaper model search) while keeping the
   escalated budgets. *)
let ladder_rungs (config : config) : (string * config) list =
  let sx = config.symex in
  let escalated =
    {
      config with
      symex =
        {
          Directed.theta = sx.theta * 4;
          max_runs = sx.max_runs * 8;
          max_steps = sx.max_steps * 4;
        };
    }
  in
  [
    ("symex-escalate", escalated);
    ("sym-file-degrade", { escalated with sym_file_size = max 256 (config.sym_file_size / 4) });
  ]

(** [climb_ladder ~deadline ~attempt r0 rungs] retries a rescuable failure
    [r0] up the ladder.  The deadline is the ONE budget shared by every
    rung — a retried rung cannot reset the clock, and once it expires the
    climb stops and the original failure stands with only the rungs
    actually attempted recorded.  A rung that fails differently (a
    non-rescuable failure) also ends the climb with the first attempt's
    failure, the honest one.  Exposed for testing. *)
let climb_ladder ~(deadline : Deadline.t) ~(attempt : config -> report) (r0 : report) rungs :
    report =
  let rec climb ~last_failure tried = function
    | [] -> { r0 with degradations = r0.degradations @ List.rev tried }
    | (rung, cfg) :: rest ->
        if Deadline.expired deadline then
          (* No budget left to climb with: the original failure stands;
             record only the rungs actually attempted. *)
          { r0 with degradations = r0.degradations @ List.rev tried }
        else begin
          if Provenance.is_on () then
            Provenance.emit (Provenance.Rung { rung; failure = last_failure });
          let r = attempt cfg in
          match r.verdict with
          | Failure msg' when rescuable_failure msg' ->
              climb ~last_failure:msg' (rung :: tried) rest
          | Failure _ ->
              (* The degraded run failed differently; the first attempt's
                 failure is the honest one. *)
              { r0 with degradations = r0.degradations @ List.rev (rung :: tried) }
          | _ -> { r with degradations = r.degradations @ List.rev (rung :: tried) }
        end
  in
  let last_failure = match r0.verdict with Failure msg -> msg | _ -> "" in
  climb ~last_failure [] rungs

(** [run ?config ?ell ~s ~t ~poc ()] executes the full pipeline.

    ℓ defaults to the clone-detection result of {!Clone.shared_functions};
    pass [?ell] to override (the paper assumes ℓ is an input).  The report
    always carries whatever intermediate artifacts were produced, so failed
    runs remain debuggable.

    Robustness contract: this function does not raise.  A deadline expiry
    or an injected fault becomes [Failure "deadline exceeded: ..."] /
    [Failure "injected fault: ..."].  When [config.ladder] is on, rescuable
    failures (budget or deadline exhaustion) are retried up the degradation
    ladder; a rescued verdict lists the rungs climbed in [degradations],
    and if every rung fails the original failure is returned verbatim with
    the tried rungs recorded. *)
let run ?(config = default_config) ?ell ~(s : Isa.program) ~(t : Isa.program) ~(poc : string) ()
    : report =
  let t_start = Unix.gettimeofday () in
  let deadline =
    match config.deadline_s with
    | None -> Deadline.none
    | Some seconds -> Deadline.after ~seconds
  in
  let attempt cfg =
    (* Each attempt start is a liveness proof for the pool's watchdog: a
       pair climbing the ladder is slow, not wedged. *)
    Octo_util.Pool.heartbeat ();
    match run_attempt ~config:cfg ~deadline ?ell ~s ~t ~poc () with
    | r -> r
    | exception Deadline.Deadline_exceeded what ->
        failure_report ("deadline exceeded: " ^ what)
    | exception Faultinject.Injected what -> failure_report ("injected fault: " ^ what)
  in
  (* The whole pair — first attempt plus any ladder rungs — is one trace
     envelope (cat "pair"), one metrics scope and one provenance scope, so
     report.metrics / report.provenance are the per-pair records of the
     domain that ran it. *)
  let (r, m), p =
    Provenance.scoped @@ fun () ->
    Metrics.scoped @@ fun () ->
    Trace.with_cat_span ~cat:"pair" ~name:"pipeline" @@ fun () ->
    let r0 = attempt config in
    match r0.verdict with
    | Failure msg when config.ladder && rescuable_failure msg ->
        climb_ladder ~deadline ~attempt r0 (ladder_rungs config)
    | _ -> r0
  in
  { r with elapsed_s = Unix.gettimeofday () -. t_start; metrics = m; provenance = p }

(* ------------------------------------------------------------------ *)
(* Batch verification. *)

type job = {
  label : string;
  js : Isa.program;
  jt : Isa.program;
  jpoc : string;
  jell : string list option;
  jconfig : config option;  (** per-job override of the batch config *)
}

let job ?ell ?config ~label ~s ~t ~poc () =
  { label; js = s; jt = t; jpoc = poc; jell = ell; jconfig = config }

let job_label (j : job) = j.label

(* How batch/stream drivers isolate one job from its batch-mates.
   [Domains] (the default, the historical behaviour) runs jobs on worker
   domains in this process: crash containment is exception-level, so a
   native fault (segfault, OOM) in one job kills the whole batch.
   [Processes] forks one rlimit-bounded child per job: the blast radius
   of any fault is the child, and the parent classifies its death into a
   structured failure. *)
type isolation = Domains | Processes

(* ------------------------------------------------------------------ *)
(* Verdict cache keys. *)

(* Canonical program rendering for hashing: functions in sorted-name order
   so the digest does not depend on hash-table internals (bucket layout,
   [OCAMLRUNPARAM=R] randomization).  The digest now lives in
   {!Compile.program_digest} — the compilation cache, the ℓ cache and the
   verdict cache all key off the same bytes. *)
let hash_program (p : Isa.program) = Compile.program_digest p

(* Every config field that can change a verdict.  [inject] is deliberately
   excluded: fault injection perturbs a run, not the pair's identity — a
   resumed chaos batch must treat the journaled verdict of a fault-afflicted
   pair as settled, exactly as the uninterrupted run would have.
   [spec_jobs] is excluded for the same reason from the other side: a
   speculative run produces the identical verdict, so serial and
   speculative invocations must share journal entries. *)
let config_fingerprint (c : config) =
  Marshal.to_string
    ( c.taint_mode,
      c.taint_granularity,
      c.symex,
      c.sym_file_size,
      c.max_steps,
      c.solver_budget,
      c.dynamic_cfg,
      c.deadline_s,
      c.ladder )
    []

(** [content_key ?config ?ell ~s ~t ~poc ()] is the verdict-cache key: a
    hex digest over the canonical content of both programs, the PoC bytes,
    the ℓ override, and every budget/config field that can change a verdict
    (fault injection excluded — see the journal docs).  Two invocations
    share a key iff a journaled verdict of one is valid for the other. *)
let content_key ?(config = default_config) ?ell ~(s : Isa.program) ~(t : Isa.program)
    ~(poc : string) () =
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          [
            hash_program s;
            hash_program t;
            Digest.string poc;
            Digest.string (Marshal.to_string ell []);
            Digest.string (config_fingerprint config);
          ]))

(** [job_key ~config j] is [content_key] for a batch item, under the job's
    own config override when it has one. *)
let job_key ~config (j : job) =
  content_key
    ~config:(Option.value j.jconfig ~default:config)
    ?ell:j.jell ~s:j.js ~t:j.jt ~poc:j.jpoc ()

(* ------------------------------------------------------------------ *)
(* Journal record codec.

   One record per settled pair: label, cache key, and enough of the report
   to reconstruct the verdict exactly (poc' bytes included).  Artifacts
   (taint, symex stats, bunches) are run-time debugging aids, not verdict
   state, and are not persisted.  The encoding is length-prefixed and
   binary-safe; [decode_result] is total, returning [None] on any
   malformed record (a foreign or future-versioned journal must not crash
   the reader). *)

(* OPR3 appends two tail fields to OPR2: an explicit metrics presence
   flag (OPR2 inferred presence from end-of-record, which left no room
   for anything after it) and an optional provenance blob.  The decoder
   still reads OPR2 records — journals written before the bump replay and
   resume unchanged, with [provenance = None]. *)
let codec_version = "OPR3"
let legacy_codec_version = "OPR2"

let put_str b s =
  let l = Bytes.create 4 in
  Bytes.set_int32_le l 0 (Int32.of_int (String.length s));
  Buffer.add_bytes b l;
  Buffer.add_string b s

(* The codec is hand-rolled end to end — no [Marshal] on the decode path,
   ever: [Marshal.from_string] on attacker-or-bitrot-controlled bytes can
   segfault the process, and journal payloads survive crashes and disk
   corruption by design.  Every field is length- or count-prefixed so the
   decoder is total (returns [None], never raises, never reads OOB). *)
let put_int b i =
  let l = Bytes.create 8 in
  Bytes.set_int64_le l 0 (Int64.of_int i);
  Buffer.add_bytes b l

let put_str_list b xs =
  put_int b (List.length xs);
  List.iter (put_str b) xs

let put_int_array b a =
  put_int b (Array.length a);
  Array.iter (put_int b) a

let put_metrics b (m : Metrics.snapshot) =
  put_int_array b m.Metrics.counters;
  put_int_array b m.Metrics.phase_count;
  put_int_array b m.Metrics.phase_ns;
  put_int_array b m.Metrics.phase_hist

let encode_result ~label ~key (r : report) =
  let b = Buffer.create 256 in
  Buffer.add_string b codec_version;
  put_str b label;
  put_str b key;
  put_str b r.ep;
  put_str_list b r.ell;
  (match r.verdict with
  | Triggered { poc'; ptype } ->
      Buffer.add_char b 'T';
      Buffer.add_char b (match ptype with Type_I -> '1' | Type_II -> '2');
      put_str b poc'
  | Not_triggerable reason ->
      Buffer.add_char b 'N';
      (match reason with
      | Ep_not_called -> Buffer.add_char b 'e'
      | Program_dead -> Buffer.add_char b 'd'
      | Unsat_model -> Buffer.add_char b 'u'
      | Constraint_conflict k ->
          Buffer.add_char b 'c';
          put_str b (string_of_int k))
  | Failure msg ->
      Buffer.add_char b 'F';
      put_str b msg);
  put_str_list b r.degradations;
  put_str b (Int64.to_string (Int64.bits_of_float r.elapsed_s));
  (* Metrics presence is explicit in OPR3 ('0'/'1') so the record can
     carry fields after it; provenance stays an optional tail — decoders
     treat end-of-record here as [provenance = None], so records written
     with collection off cost one flag byte over OPR2. *)
  (match r.metrics with
  | None -> Buffer.add_char b '0'
  | Some snap ->
      Buffer.add_char b '1';
      put_metrics b snap);
  (match r.provenance with None -> () | Some p -> put_str b (Provenance.encode p));
  Buffer.contents b

let decode_result (s : string) : (string * string * report) option =
  let pos = ref 0 in
  let n = String.length s in
  let exception Bad in
  let take k =
    if n - !pos < k then raise Bad;
    let r = String.sub s !pos k in
    pos := !pos + k;
    r
  in
  let get_str () =
    let l = take 4 in
    let len =
      Char.code l.[0] lor (Char.code l.[1] lsl 8) lor (Char.code l.[2] lsl 16)
      lor (Char.code l.[3] lsl 24)
    in
    if len < 0 || len > n - !pos then raise Bad;
    take len
  in
  let get_int () =
    let s = take 8 in
    Int64.to_int (Bytes.get_int64_le (Bytes.unsafe_of_string s) 0)
  in
  let get_str_list () =
    let k = get_int () in
    (* Each element costs at least its 4-byte length prefix, so a count
       beyond the remaining bytes is corrupt — reject before allocating. *)
    if k < 0 || k > (n - !pos) / 4 then raise Bad;
    List.init k (fun _ -> get_str ())
  in
  let get_int_array expect =
    if get_int () <> expect then raise Bad;
    Array.init expect (fun _ -> get_int ())
  in
  let get_counters () =
    (* The counter array is decoded length-tolerantly: it is the one
       snapshot dimension that grows when a release adds a counter (the
       phase list is the pipeline's shape; the counter list is an open
       enumeration).  A record written by an older build carries fewer
       counters — pad the missing ones with 0; a newer build's extras are
       read and dropped.  The count is still sanity-bounded so corrupt
       lengths stay rejected. *)
    let k = get_int () in
    if k < 0 || k > 64 || k * 8 > n - !pos then raise Bad;
    let a = Array.init k (fun _ -> get_int ()) in
    let counters = Array.make Metrics.ncounters 0 in
    Array.blit a 0 counters 0 (min k Metrics.ncounters);
    counters
  in
  let get_metrics () =
    (* Sequenced lets: record-field evaluation order is unspecified, and
       these reads must consume the stream in write order. *)
    let counters = get_counters () in
    let phase_count = get_int_array Metrics.nphases in
    let phase_ns = get_int_array Metrics.nphases in
    let phase_hist = get_int_array (Metrics.nphases * Metrics.nbuckets) in
    { Metrics.counters; phase_count; phase_ns; phase_hist }
  in
  match
    let version = take 4 in
    if version <> codec_version && version <> legacy_codec_version then raise Bad;
    let label = get_str () in
    let key = get_str () in
    let ep = get_str () in
    let ell = get_str_list () in
    let verdict =
      match (take 1).[0] with
      | 'T' ->
          let ptype = match (take 1).[0] with '1' -> Type_I | '2' -> Type_II | _ -> raise Bad in
          Triggered { poc' = get_str (); ptype }
      | 'N' -> (
          match (take 1).[0] with
          | 'e' -> Not_triggerable Ep_not_called
          | 'd' -> Not_triggerable Program_dead
          | 'u' -> Not_triggerable Unsat_model
          | 'c' -> (
              match int_of_string_opt (get_str ()) with
              | Some k -> Not_triggerable (Constraint_conflict k)
              | None -> raise Bad)
          | _ -> raise Bad)
      | 'F' -> Failure (get_str ())
      | _ -> raise Bad
    in
    let degradations = get_str_list () in
    let elapsed_s =
      match Int64.of_string_opt (get_str ()) with
      | Some bits -> Int64.float_of_bits bits
      | None -> raise Bad
    in
    let metrics, provenance =
      if version = legacy_codec_version then
        (* OPR2: metrics presence inferred from end-of-record; no
           provenance field existed. *)
        ((if !pos = n then None else Some (get_metrics ())), None)
      else begin
        let metrics =
          match (take 1).[0] with
          | '0' -> None
          | '1' -> Some (get_metrics ())
          | _ -> raise Bad
        in
        let provenance =
          if !pos = n then None
          else
            match Provenance.decode (get_str ()) with
            | Some p -> Some p
            | None -> raise Bad
        in
        (metrics, provenance)
      end
    in
    if !pos <> n then raise Bad;
    ( label,
      key,
      {
        verdict;
        ep;
        ell;
        bunches = [];
        taint = None;
        symex = None;
        degradations;
        elapsed_s;
        metrics;
        provenance;
      } )
  with
  | r -> Some r
  | exception Bad -> None

(* ------------------------------------------------------------------ *)

let skipped_failure_msg = "skipped: fail-fast after an earlier failure"

let is_skipped_report (r : report) =
  match r.verdict with
  | Failure msg -> msg = skipped_failure_msg
  | _ -> false

(** [run_all ?config ?jobs ?retries ?stall_grace_s ?fail_fast ?on_settle
    jobs_list] verifies every pair, fanning out over a fixed pool of [jobs]
    worker domains ([jobs <= 1] runs serially in the calling domain).
    Results keep the input order.  Pairs are independent — each run builds
    its own stores and states — so corpus throughput scales with cores
    until memory bandwidth saturates.

    Crash isolation: a job whose worker raises (after [retries] extra
    attempts) yields [(label, Failure "worker crashed: ...")] — the batch
    always returns one labelled report per input job and never forfeits its
    batch-mates' completed work.

    Stall supervision: with [stall_grace_s] (and [jobs >= 2]), a worker
    silent past the grace is requeued under the same [retries] accounting;
    exhausted attempts settle as [Failure "worker stalled: ..."].

    [fail_fast] stops scheduling once any pair settles as a [Failure]:
    not-yet-started pairs come back as [Failure "skipped: ..."]
    ({!is_skipped_report}) and are NOT passed to [on_settle], so a
    journaled resumed run re-verifies them.

    [on_settle label report] fires exactly once per non-skipped job as it
    settles (completion order, from worker context — the write-ahead
    journal hooks in here); [run_all] returns only after every callback
    has finished. *)
let run_all_domains ?(config = default_config) ?(jobs = 1) ?(retries = 0) ?stall_grace_s
    ?(fail_fast = false) ?pre_run ?on_settle (batch : job list) : (string * report) list =
  let stop = Atomic.make false in
  let one j =
    if fail_fast && Atomic.get stop then failure_report skipped_failure_msg
    else begin
      (match pre_run with None -> () | Some f -> f j);
      let cfg = Option.value j.jconfig ~default:config in
      (* The chaos harness's synthetic worker faults fire *outside* run's
         containment on purpose: crash exercises the pool's crash
         isolation, stall its heartbeat watchdog. *)
      Faultinject.maybe_raise cfg.inject Faultinject.Worker_crash
        ~what:"synthetic worker exception";
      if Faultinject.fire cfg.inject Faultinject.Worker_stall then begin
        let stall_s =
          match stall_grace_s with Some g -> 2.5 *. g | None -> 0.25
        in
        Unix.sleepf stall_s;
        raise (Faultinject.Injected "worker-stall: synthetic wedged worker")
      end;
      run ~config:cfg ?ell:j.jell ~s:j.js ~t:j.jt ~poc:j.jpoc ()
    end
  in
  let arr = Array.of_list batch in
  let to_report = function
    | Stdlib.Ok report -> report
    | Stdlib.Error (Octo_util.Pool.Stalled msg, _) ->
        failure_report ("worker stalled: " ^ msg)
    | Stdlib.Error (e, _bt) -> failure_report ("worker crashed: " ^ Printexc.to_string e)
  in
  let settle i res =
    let r = to_report res in
    if not (is_skipped_report r) then begin
      (match r.verdict with Failure _ -> Atomic.set stop true | _ -> ());
      match on_settle with None -> () | Some f -> f arr.(i).label r
    end
  in
  List.map2
    (fun j res -> (j.label, to_report res))
    batch
    (Octo_util.Pool.parallel_map_result ~jobs ~retries ?stall_grace_s ~on_settle:settle one
       batch)

(* ------------------------------------------------------------------ *)
(* Poison-pair quarantine. *)

type quarantine = {
  qlabel : string;
  qkey : string;
  qreason : string;  (** ["worker crashed"] or ["worker stalled"] *)
  qmessage : string;  (** printable exception of the final attempt *)
  qbacktrace : string;  (** final attempt's backtrace (may be empty) *)
  qattempts : int;  (** attempts consumed, retries included *)
}

(* Quarantine records share the journal framing with verdicts but carry
   their own version tag, so [decode_result] rejects them cleanly (version
   mismatch -> [None]) and vice versa — one quarantine journal can be
   dumped by the same tolerant reader loop as a verdict journal. *)
let quarantine_codec_version = "OQR1"

let encode_quarantine (q : quarantine) =
  let b = Buffer.create 128 in
  Buffer.add_string b quarantine_codec_version;
  put_str b q.qlabel;
  put_str b q.qkey;
  put_str b q.qreason;
  put_str b q.qmessage;
  put_str b q.qbacktrace;
  put_int b q.qattempts;
  Buffer.contents b

let decode_quarantine (s : string) : quarantine option =
  let pos = ref 0 in
  let n = String.length s in
  let exception Bad in
  let take k =
    if n - !pos < k then raise Bad;
    let r = String.sub s !pos k in
    pos := !pos + k;
    r
  in
  let get_str () =
    let l = take 4 in
    let len =
      Char.code l.[0] lor (Char.code l.[1] lsl 8) lor (Char.code l.[2] lsl 16)
      lor (Char.code l.[3] lsl 24)
    in
    if len < 0 || len > n - !pos then raise Bad;
    take len
  in
  let get_int () =
    let s = take 8 in
    Int64.to_int (Bytes.get_int64_le (Bytes.unsafe_of_string s) 0)
  in
  match
    if take 4 <> quarantine_codec_version then raise Bad;
    let qlabel = get_str () in
    let qkey = get_str () in
    let qreason = get_str () in
    let qmessage = get_str () in
    let qbacktrace = get_str () in
    let qattempts = get_int () in
    if !pos <> n then raise Bad;
    { qlabel; qkey; qreason; qmessage; qbacktrace; qattempts }
  with
  | q -> Some q
  | exception Bad -> None

(* ------------------------------------------------------------------ *)
(* Streaming batch verification. *)

type stream_stats = {
  st_pulled : int;  (** jobs pulled from the source *)
  st_settled : int;  (** jobs that produced a verdict (on_settle fired) *)
  st_quarantined : int;  (** jobs handed to [on_quarantine] *)
  st_peak_in_flight : int;  (** high-water mark of concurrently held jobs *)
  st_deferrals : int;
      (** admission-deferral episodes: times the process-mode memory
          controller paused admissions under pressure (always 0 in
          Domain isolation) *)
}

(* ------------------------------------------------------------------ *)
(* Process-isolated streaming scheduler.

   Single-domain by construction: OCaml 5.1 refuses [Unix.fork]
   permanently once any domain has EVER been spawned in the process (the
   restriction latches; joining does not lift it), so this scheduler
   spawns NO worker domains — its parallelism is process-level,
   multiplexing child pipes over one select loop — and callers must
   reach it before the process's first Domain-mode batch.  The shared
   pool is still shut down defensively on entry: on runtimes that only
   require a single-domain process at fork time, that is what restores
   forkability. *)

type proc_active = {
  ac : Sandbox.child;
  aj : job;
  ak : int;  (* 0-based attempt number *)
  adeferred : bool;  (* admission was deferred under pressure *)
}

(* What a sandboxed child runs: the same worker body as the Domain-mode
   drivers (pre-run hook, synthetic worker faults, the pipeline), with
   the settled report encoded onto the pipe as the child's one frame.
   Exceptions deliberately escape into [Sandbox.spawn]'s transport so
   the parent's retry ladder sees them, mirroring how Domain mode lets
   them escape into the pool's crash isolation. *)
let run_child_payload cfg ~key pre_run j () =
  (match pre_run with None -> () | Some f -> f j);
  Faultinject.maybe_raise cfg.inject Faultinject.Worker_crash
    ~what:"synthetic worker exception";
  if Faultinject.fire cfg.inject Faultinject.Worker_stall then begin
    Unix.sleepf 0.25;
    raise (Faultinject.Injected "worker-stall: synthetic wedged worker")
  end;
  let r = run ~config:cfg ?ell:j.jell ~s:j.js ~t:j.jt ~poc:j.jpoc () in
  encode_result ~label:j.label ~key r

let proc_stream ~(config : config) ~retries ~window ?limits ?mem_watermark_mb ?pre_run
    ?on_settle ?on_quarantine (next : unit -> job option) : stream_stats =
  Octo_util.Pool.shutdown_shared ();
  let limits = Option.value limits ~default:Sandbox.no_limits in
  let adm = Sandbox.Admission.create ?watermark_mb:mem_watermark_mb ~window () in
  let pulled = ref 0 and settled = ref 0 and quarantined = ref 0 in
  let peak = ref 0 and deferrals = ref 0 in
  (* [deferring] marks an open pressure episode: one episode counts one
     deferral however many loop iterations it spans, and the first job
     admitted out of it carries the "admission-deferred" degradation. *)
  let deferring = ref false in
  let active : proc_active list ref = ref [] in
  (* Respawns take priority over fresh pulls so a retried pair cannot be
     starved by an endless source. *)
  let pending : (job * int * bool) Queue.t = Queue.create () in
  let exhausted_src = ref false in
  let settle_cb j r =
    incr settled;
    match on_settle with
    | None -> ()
    | Some f -> (
        try f j r
        with e ->
          Log.err (fun m ->
              m "run_stream: on_settle for %s raised %s" j.label (Printexc.to_string e)))
  in
  let spawn_job (j, k, was_deferred) =
    let cfg = Option.value j.jconfig ~default:config in
    (* Child-death faults are drawn by the PARENT, pre-fork: each retry
       advances the injector stream, so a seeded schedule can kill the
       first attempt and let the retry survive — deterministically. *)
    let die =
      if Faultinject.fire cfg.inject Faultinject.Child_segv then `Segv
      else if Faultinject.fire cfg.inject Faultinject.Child_oom_kill then `Oom_kill
      else `None
    in
    (* The wall-clock kill is a hard backstop well behind the cooperative
       deadline (which already absorbs ladder climbs); no per-job deadline
       means the parent never kills on time. *)
    let kill_after_s = Option.map (fun d -> (d *. 4.0) +. 1.0) cfg.deadline_s in
    let key = job_key ~config j in
    let c = Sandbox.spawn ~limits ?kill_after_s ~die (run_child_payload cfg ~key pre_run j) in
    active := { ac = c; aj = j; ak = k; adeferred = was_deferred } :: !active;
    let n = List.length !active in
    if n > !peak then peak := n
  in
  let retry_or_quarantine e ~reason ~message ~rung =
    let j = e.aj and k = e.ak in
    if k < retries then begin
      Metrics.incr Metrics.Pool_retries;
      Telemetry.note_retry ();
      Log.warn (fun m ->
          m "run_stream: %s child died (%s: %s); retrying (%d/%d)" j.label reason message
            (k + 1) retries);
      Octo_util.Pool.backoff_sleep ~key:(Hashtbl.hash j.label) ~attempt:(k + 1) ();
      Queue.add (j, k + 1, e.adeferred) pending
    end
    else
      match on_quarantine with
      | Some f -> (
          let q =
            {
              qlabel = j.label;
              qkey = job_key ~config j;
              qreason = reason;
              qmessage = message;
              qbacktrace = "";  (* died in another address space: no backtrace *)
              qattempts = k + 1;
            }
          in
          incr quarantined;
          try f q
          with qe ->
            Log.err (fun m ->
                m "run_stream: on_quarantine for %s raised %s" j.label
                  (Printexc.to_string qe)))
      | None ->
          (* Settle like Domain mode, but with the death classification as
             a provenance rung so `explain` shows WHY the child died. *)
          let provenance =
            if Provenance.is_on () then
              Some
                {
                  Provenance.events = [ Provenance.Rung { rung; failure = message } ];
                  dropped = 0;
                }
            else None
          in
          settle_cb j { (failure_report (reason ^ ": " ^ message)) with provenance }
  in
  let handle_death e (death, maxrss_kb) =
    Sandbox.Admission.note_child_rss adm maxrss_kb;
    Telemetry.note_child_rss maxrss_kb;
    match death with
    | Sandbox.Clean payload -> (
        match decode_result payload with
        | Some (_, _, r) ->
            let r =
              if e.adeferred then
                { r with degradations = r.degradations @ [ "admission-deferred" ] }
              else r
            in
            settle_cb e.aj r
        | None ->
            retry_or_quarantine e ~reason:"worker crashed"
              ~message:"child returned an undecodable verdict frame" ~rung:"child-torn")
    | Sandbox.Child_exn msg ->
        (* The transported exception is already printed; the injected
           stall site's marker survives as "Injected(worker-stall: ...)". *)
        let is_stall =
          let p = "Injected(worker-stall" in
          String.length msg >= String.length p && String.sub msg 0 (String.length p) = p
        in
        let reason = if is_stall then "worker stalled" else "worker crashed" in
        retry_or_quarantine e ~reason ~message:msg ~rung:"child-exn"
    | Sandbox.Segv ->
        retry_or_quarantine e ~reason:"worker crashed" ~message:"child segfaulted (SIGSEGV)"
          ~rung:"child-segv"
    | Sandbox.Oom why ->
        retry_or_quarantine e ~reason:"oom" ~message:("child out of memory: " ^ why)
          ~rung:"child-oom"
    | Sandbox.Cpu ->
        retry_or_quarantine e ~reason:"worker crashed"
          ~message:"child exceeded RLIMIT_CPU (SIGXCPU)" ~rung:"child-cpu"
    | Sandbox.Deadline_kill ->
        retry_or_quarantine e ~reason:"worker stalled"
          ~message:"child killed by parent at deadline" ~rung:"child-deadline-kill"
    | Sandbox.Torn why ->
        retry_or_quarantine e ~reason:"worker crashed"
          ~message:("child pipe protocol torn: " ^ why) ~rung:"child-torn"
    | Sandbox.Other why ->
        retry_or_quarantine e ~reason:"worker crashed"
          ~message:("child died unexpectedly: " ^ why) ~rung:"child-other"
  in
  let progress_cut () =
    {
      Telemetry.pulled = !pulled;
      settled = !settled;
      quarantined = !quarantined;
      in_flight = List.length !active;
      window;
    }
  in
  let try_admit () =
    let stop = ref false in
    while not !stop do
      let have_pending = not (Queue.is_empty pending) in
      if (not have_pending) && !exhausted_src then stop := true
      else
        match Sandbox.Admission.admit adm ~in_flight:(List.length !active) with
        | `Defer `Full -> stop := true
        | `Defer `Pressure ->
            if not !deferring then begin
              deferring := true;
              incr deferrals;
              Metrics.incr Metrics.Admission_deferrals;
              Telemetry.note_deferral ()
            end;
            stop := true
        | `Admit -> (
            let was_deferred = !deferring in
            deferring := false;
            if have_pending then spawn_job (Queue.pop pending)
            else
              match next () with
              | None -> exhausted_src := true
              | Some j ->
                  incr pulled;
                  spawn_job (j, 0, was_deferred))
    done
  in
  let rec loop () =
    try_admit ();
    if !active = [] && Queue.is_empty pending && !exhausted_src then ()
    else begin
      List.iter (fun e -> if Sandbox.deadline_expired e.ac then Sandbox.kill e.ac) !active;
      let fds = List.map (fun e -> Sandbox.fd e.ac) !active in
      let readable =
        match Unix.select fds [] [] 0.05 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      let finished, still =
        List.partition
          (fun e -> List.memq (Sandbox.fd e.ac) readable && Sandbox.drain e.ac)
          !active
      in
      active := still;
      List.iter (fun e -> handle_death e (Sandbox.reap e.ac)) finished;
      (* The 0.05 s select timeout gives the sampler a steady cadence
         even while every child is quiet. *)
      Telemetry.tick (fun () -> progress_cut ());
      loop ()
    end
  in
  loop ();
  Telemetry.sample_now (progress_cut ());
  {
    st_pulled = !pulled;
    st_settled = !settled;
    st_quarantined = !quarantined;
    st_peak_in_flight = !peak;
    st_deferrals = !deferrals;
  }

(** [run_stream ?config ?jobs ?retries ?window ?on_settle ?on_quarantine
    next] verifies a stream of jobs pulled lazily from [next] — the
    corpus-scale runner.  Unlike {!run_all} it never materializes the
    batch: [next ()] is called (from the dispatching domain only) each
    time a worker slot is admitted, so peak memory is bounded by the
    admission window, not the corpus size.

    Admission control: at most [window] jobs (default [max 4 (2 * jobs)])
    are in flight at once; the generator behind [next] is simply not
    pulled while the window is full, which is what bounds in-flight
    memory.

    Crash containment: a job whose worker raises gets [retries] extra
    attempts, each preceded by {!Octo_util.Pool.backoff_delay}'s capped
    exponential backoff (the job's attempt streams — fault injectors
    included — advance deterministically, so a killed-and-resumed run
    replays the same decisions).  A job that still raises after the
    budget is handed to [on_quarantine] with its reason, printable
    exception, backtrace and attempt count — it does NOT settle and does
    not fail the batch.  Without [on_quarantine], exhausted jobs settle
    as [Failure "worker crashed: ..."] like {!run_all}.

    There is no heartbeat watchdog in streaming mode: wedged-worker
    containment comes from the per-job cooperative deadline
    ([config.deadline_s]); the injected [Worker_stall] site sleeps then
    raises, taking the crash path above (reason ["worker stalled"]).

    [on_settle job report] and [on_quarantine q] fire exactly once per
    job, from worker context, in completion order; [run_stream] returns
    only after every callback has finished. *)
let run_stream ?(config = default_config) ?(jobs = 1) ?(retries = 0) ?window
    ?(isolate = Domains) ?limits ?mem_watermark_mb ?pre_run ?on_settle ?on_quarantine
    (next : unit -> job option) : stream_stats =
  let jobs = Octo_util.Pool.effective_jobs jobs in
  (* In process isolation the window IS the concurrency: one child per
     admitted job, so the Domain-mode default (twice the workers) carries
     over as "up to 2*jobs live children". *)
  let window = match window with Some w -> max 1 w | None -> max 4 (2 * jobs) in
  match isolate with
  | Processes ->
      proc_stream ~config ~retries ~window ?limits ?mem_watermark_mb ?pre_run ?on_settle
        ?on_quarantine next
  | Domains ->
  let one j =
    (match pre_run with None -> () | Some f -> f j);
    let cfg = Option.value j.jconfig ~default:config in
    Faultinject.maybe_raise cfg.inject Faultinject.Worker_crash
      ~what:"synthetic worker exception";
    if Faultinject.fire cfg.inject Faultinject.Worker_stall then begin
      Unix.sleepf 0.25;
      raise (Faultinject.Injected "worker-stall: synthetic wedged worker")
    end;
    run ~config:cfg ?ell:j.jell ~s:j.js ~t:j.jt ~poc:j.jpoc ()
  in
  let settle_cb j r =
    match on_settle with
    | None -> ()
    | Some f -> (
        try f j r
        with e ->
          Log.err (fun m ->
              m "run_stream: on_settle for %s raised %s" j.label (Printexc.to_string e)))
  in
  let stall_message e =
    (* The injected stall site raises [Injected "worker-stall: ..."] after
       its sleep; classify it as a stall so the quarantine record
       distinguishes a wedge from a crash. *)
    match e with
    | Faultinject.Injected msg ->
        String.length msg >= 12 && String.sub msg 0 12 = "worker-stall"
    | _ -> false
  in
  let exhausted j (e, bt) ~attempts =
    let reason = if stall_message e then "worker stalled" else "worker crashed" in
    match on_quarantine with
    | Some f -> (
        let q =
          {
            qlabel = j.label;
            qkey = job_key ~config j;
            qreason = reason;
            qmessage = Printexc.to_string e;
            qbacktrace = Printexc.raw_backtrace_to_string bt;
            qattempts = attempts;
          }
        in
        try
          f q;
          `Quarantined
        with qe ->
          Log.err (fun m ->
              m "run_stream: on_quarantine for %s raised %s" j.label (Printexc.to_string qe));
          `Quarantined)
    | None ->
        settle_cb j (failure_report (reason ^ ": " ^ Printexc.to_string e));
        `Settled
  in
  let pulled = ref 0 and settled = ref 0 and quarantined = ref 0 in
  let peak = ref 0 in
  if jobs <= 1 then begin
    (* Serial: pull, attempt with backoff'd retries, settle or quarantine,
       all in the calling domain.  [in_flight] is identically 1. *)
    peak := 1;
    let rec drain () =
      match next () with
      | None -> ()
      | Some j ->
          incr pulled;
          let bkey = Hashtbl.hash j.label in
          let rec attempt k =
            match one j with
            | r ->
                settle_cb j r;
                incr settled
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                if k < retries then begin
                  Metrics.incr Metrics.Pool_retries;
                  Telemetry.note_retry ();
                  Log.warn (fun m ->
                      m "run_stream: %s raised %s; retrying (%d/%d)" j.label
                        (Printexc.to_string e) (k + 1) retries);
                  Octo_util.Pool.backoff_sleep ~key:bkey ~attempt:(k + 1) ();
                  attempt (k + 1)
                end
                else begin
                  match exhausted j (e, bt) ~attempts:(k + 1) with
                  | `Quarantined -> incr quarantined
                  | `Settled -> incr settled
                end
          in
          attempt 0;
          Telemetry.tick (fun () ->
              {
                Telemetry.pulled = !pulled;
                settled = !settled;
                quarantined = !quarantined;
                in_flight = 1;
                window = 1;
              });
          drain ()
    in
    drain ();
    Telemetry.sample_now
      {
        Telemetry.pulled = !pulled;
        settled = !settled;
        quarantined = !quarantined;
        in_flight = 0;
        window = 1;
      };
    {
      st_pulled = !pulled;
      st_settled = !settled;
      st_quarantined = !quarantined;
      st_peak_in_flight = (if !pulled = 0 then 0 else 1);
      st_deferrals = 0;
    }
  end
  else begin
    let pool = Octo_util.Pool.create ~jobs in
    let lock = Mutex.create () in
    let slot_free = Condition.create () in
    let in_flight = ref 0 in
    let release () =
      Mutex.lock lock;
      decr in_flight;
      Condition.signal slot_free;
      Mutex.unlock lock;
      (* Every completion is a tick opportunity; the counter reads are
         deliberately unlocked (a sample is a statistical cut, and OCaml 5
         unsynchronized int reads are stale at worst, never garbage). *)
      Telemetry.tick (fun () ->
          {
            Telemetry.pulled = !pulled;
            settled = !settled;
            quarantined = !quarantined;
            in_flight = !in_flight;
            window;
          })
    in
    let rec task j k () =
      match one j with
      | r ->
          settle_cb j r;
          Mutex.lock lock;
          incr settled;
          Mutex.unlock lock;
          release ()
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          if k < retries then begin
            Metrics.incr Metrics.Pool_retries;
            Telemetry.note_retry ();
            Log.warn (fun m ->
                m "run_stream: %s raised %s; retrying (%d/%d)" j.label (Printexc.to_string e)
                  (k + 1) retries);
            Octo_util.Pool.backoff_sleep ~key:(Hashtbl.hash j.label) ~attempt:(k + 1) ();
            Octo_util.Pool.submit pool (task j (k + 1))
          end
          else begin
            (match exhausted j (e, bt) ~attempts:(k + 1) with
            | `Quarantined ->
                Mutex.lock lock;
                incr quarantined;
                Mutex.unlock lock
            | `Settled ->
                Mutex.lock lock;
                incr settled;
                Mutex.unlock lock);
            release ()
          end
    in
    (* Dispatcher: the calling domain pulls the next job only once a slot
       is free — this is the generator pause. *)
    let rec dispatch () =
      Mutex.lock lock;
      while !in_flight >= window do
        Condition.wait slot_free lock
      done;
      incr in_flight;
      if !in_flight > !peak then peak := !in_flight;
      Mutex.unlock lock;
      match next () with
      | None ->
          (* Nothing was admitted after all: give the slot back. *)
          release ()
      | Some j ->
          Mutex.lock lock;
          incr pulled;
          Mutex.unlock lock;
          Octo_util.Pool.submit pool (task j 0);
          dispatch ()
    in
    dispatch ();
    Mutex.lock lock;
    while !in_flight > 0 do
      Condition.wait slot_free lock
    done;
    Mutex.unlock lock;
    Octo_util.Pool.shutdown pool;
    Telemetry.sample_now
      {
        Telemetry.pulled = !pulled;
        settled = !settled;
        quarantined = !quarantined;
        in_flight = 0;
        window;
      };
    {
      st_pulled = !pulled;
      st_settled = !settled;
      st_quarantined = !quarantined;
      st_peak_in_flight = !peak;
      st_deferrals = 0;
    }
  end

(* ------------------------------------------------------------------ *)
(* Process-isolated batch verification: the fixed batch streamed through
   [proc_stream] with the worker count as the window.  Exhausted retry
   budgets settle as failures (run_all has no quarantine channel), and
   fail-fast stops pulling once any pair settles as a Failure —
   in-flight children still complete, like Domain mode's started jobs. *)
let run_all_proc ~(config : config) ~jobs ~retries ~fail_fast ?limits ?pre_run ?on_settle
    (batch : job list) : (string * report) list =
  let stop = Atomic.make false in
  let remaining = ref batch in
  let next () =
    if fail_fast && Atomic.get stop then None
    else
      match !remaining with
      | [] -> None
      | j :: rest ->
          remaining := rest;
          Some j
  in
  (* Results are keyed by physical job identity, not label, so duplicate
     labels in one batch cannot cross their reports. *)
  let results : (job * report) list ref = ref [] in
  let settle j r =
    (match r.verdict with Failure _ -> Atomic.set stop true | _ -> ());
    results := (j, r) :: !results;
    match on_settle with None -> () | Some f -> f j.label r
  in
  let window = max 1 (Octo_util.Pool.effective_jobs jobs) in
  let (_ : stream_stats) =
    proc_stream ~config ~retries ~window ?limits ?pre_run ~on_settle:settle next
  in
  List.map
    (fun j ->
      match List.find_opt (fun (j', _) -> j' == j) !results with
      | Some (_, r) -> (j.label, r)
      | None -> (j.label, failure_report skipped_failure_msg))
    batch

(* The public batch entry point: Domain isolation is the default and
   byte-identical to the historical behaviour; [~isolate:Processes]
   forks one rlimit-bounded child per job.  [stall_grace_s] is inert
   under process isolation — the parent's wall-clock deadline-kill
   subsumes the heartbeat watchdog. *)
let run_all ?(config = default_config) ?(jobs = 1) ?(retries = 0) ?stall_grace_s
    ?(fail_fast = false) ?(isolate = Domains) ?limits ?pre_run ?on_settle
    (batch : job list) : (string * report) list =
  match isolate with
  | Domains ->
      run_all_domains ~config ~jobs ~retries ?stall_grace_s ~fail_fast ?pre_run ?on_settle
        batch
  | Processes ->
      ignore stall_grace_s;
      run_all_proc ~config ~jobs ~retries ~fail_fast ?limits ?pre_run ?on_settle batch

(** [stream_of_list jobs] is a pull cursor over a pre-materialized job
    list, safe to hand to {!run_stream}: the dispatcher is the only
    caller by contract, but the cursor is mutex-protected anyway so a
    future multi-dispatcher cannot corrupt it. *)
let stream_of_list jobs =
  let m = Mutex.create () in
  let rest = ref jobs in
  fun () ->
    Mutex.lock m;
    let j =
      match !rest with
      | [] -> None
      | j :: tl ->
          rest := tl;
          Some j
    in
    Mutex.unlock m;
    j

(* ------------------------------------------------------------------ *)
(* Deterministic dump ordering. *)

(* Registry labels are integers-as-strings; compare those numerically so
   "10" sorts after "9", everything else lexicographically. *)
let compare_labels a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some x, Some y -> compare x y
  | _ -> compare a b

(** [sort_dump entries] orders decoded journal records [(label, key, _)]
    for display: label (numeric-aware), then content key.  The key
    tiebreak is what makes a merged sharded dump deterministic — shard
    interleave depends on settle order, and one label can legitimately
    appear under several keys (config changes across resumes), so label
    alone would leave the order timing-dependent. *)
let sort_dump entries =
  List.sort
    (fun (l1, k1, _) (l2, k2, _) ->
      match compare_labels l1 l2 with 0 -> compare k1 k2 | c -> c)
    entries
