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
      (** every degradation the pipeline applied to produce this verdict,
          in order: ["dynamic-cfg"], ["symex-escalate"].  Empty for a
          clean first-attempt run. *)
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
    expanded minimized core of the last conflict (if any), and the
    escalated retry (section "degradation ladder").  Contains no timings,
    addresses or other run-varying data — two runs of the same pair
    produce byte-identical output, which is what the golden tests pin. *)
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

let poc_of_model (model : Solve.model) ~length =
  String.init length (fun i -> Char.chr (Solve.model_byte model i land 0xff))

type config = {
  taint_mode : Taint.mode;
  taint_granularity : Taint.granularity;
  symex : Directed.config;
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
  inject : Faultinject.t;
      (** deterministic fault injector for the chaos harness;
          {!Faultinject.none} (default) costs one tag test per site. *)
}

let default_config =
  {
    taint_mode = Taint.Context_aware;
    taint_granularity = Taint.Byte_level;
    symex = Directed.default_config;
    max_steps = Interp.default_max_steps;
    solver_budget = 400_000;
    dynamic_cfg = false;
    deadline_s = None;
    inject = Faultinject.none;
  }

(** [failure_report msg] is the minimal report for a failure that happened
    outside (or instead of) the pipeline proper — a crashed worker, an
    exceeded deadline, an injected fault. *)
let failure_report msg =
  {
    verdict = Failure msg;
    ep = "";
    ell = [];
    bunches = [];
    taint = None;
    symex = None;
    degradations = [];
    elapsed_s = 0.0;
    metrics = None;
    provenance = None;
  }

(* ------------------------------------------------------------------ *)
(* The S side of a pair.

   Preprocessing (crash S, pick ep) and P1 taint depend only on S, the
   PoC and ep; only P2-P4 depend on T.  A probe holds that S side so the
   Ts it is verified against can share it: S's digest, S's concrete run
   under one [max_steps], and a taint result per
   (ep, mode, granularity).  Every kept value is immutable.  Under an
   enabled fault injector a probe neither reuses nor keeps anything: each
   attempt owns its fault schedule, and a skipped S run would skip its
   draws. *)

type probe = {
  ps : Isa.program;
  psdig : string;  (* Compile.program_digest ps *)
  ppoc : string;
  mutable crash_run : (int * Interp.result) option;  (* keyed by max_steps *)
  mutable taints : ((string * Taint.mode * Taint.granularity) * Taint.result) list;
}

let probe_digested ~sdig ~s ~poc =
  {
    ps = s;
    psdig = sdig;
    ppoc = poc;
    crash_run = None;
    taints = [];
  }

let probe ~s ~poc = probe_digested ~sdig:(Compile.program_digest s) ~s ~poc

(* Drops everything memoized, leaving the probe as fresh as a new one. *)
let forget p =
  p.crash_run <- None;
  p.taints <- []

(* S's run on the PoC (preprocessing), with S's compilation when it ran
   here.  The probe keeps the run but not the compilation: a corpus
   stream has one T per S, and compiled closures held across the T side
   would only be promoted. *)
let crash_run p ~max_steps ~deadline ~inject =
  let keep = not (Faultinject.enabled inject) in
  match p.crash_run with
  | Some (m, r) when keep && m = max_steps -> (None, r)
  | _ ->
      let cs = Compile.get ~digest:p.psdig p.ps in
      let r = Compile.run ~max_steps ~deadline ~inject cs ~input:p.ppoc in
      if keep then p.crash_run <- Some (max_steps, r);
      (Some cs, r)

(* P1: crash-primitive extraction for [ep], on [cs] when S was compiled
   for this attempt's crash run. *)
let taint_of p ~(config : config) ~cs ~ep =
  let keep = not (Faultinject.enabled config.inject) in
  let key = (ep, config.taint_mode, config.taint_granularity) in
  match List.assoc_opt key p.taints with
  | Some r when keep -> r
  | _ ->
      let compiled =
        match cs with Some c -> c | None -> Compile.get ~digest:p.psdig p.ps
      in
      let r =
        Trace.with_span Trace.Taint "extract" @@ fun () ->
        Taint.extract ~mode:config.taint_mode ~granularity:config.taint_granularity ~compiled
          p.ps ~poc:p.ppoc ~ep
      in
      if keep then p.taints <- (key, r) :: p.taints;
      r

(* One full pipeline pass under a fixed configuration and deadline, T side
   against probe [p].  The public {!verify} wraps this with deadline
   construction, exception containment and the escalated retry. *)
let run_attempt ~(config : config) ~(deadline : Deadline.t) ?ell (p : probe) ~(t : Isa.program)
    () : report =
  let inject = config.inject in
  let s = p.ps and poc = p.ppoc in
  let degraded = ref [] in
  (* [verify] fills in the timing, metrics and provenance. *)
  let finish verdict ~ep ~ell ~bunches ~taint ~symex =
    { (failure_report "") with verdict; ep; ell; bunches; taint; symex;
      degradations = List.rev !degraded }
  in
  (* T's canonical content digest, computed once per attempt: the clone
     profile table, T's compilation and its CFG lookups key off it, as
     they key off the probe's digest of S. *)
  let tdig = Compile.program_digest t in
  let ell =
    match ell with
    | Some l -> l
    | None -> Clone.ell_names (Clone.shared_functions_cached ~sdig:p.psdig ~tdig s t)
  in
  if ell = [] then
    finish (Failure "no shared functions between S and T") ~ep:"" ~ell ~bunches:[] ~taint:None
      ~symex:None
  else begin
    (* Preprocessing: crash S, pick ep from the backtrace. *)
    Faultinject.maybe_raise inject Faultinject.Deadline_expiry ~what:"preprocessing";
    let cs, s_run = crash_run p ~max_steps:config.max_steps ~deadline ~inject in
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
            let taint_res = taint_of p ~config ~cs ~ep in
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
                match Cfg.build_cached ~digest:tdig t ~ep with
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
                    let hooks =
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
                    let outcome, stats =
                      Trace.with_span Trace.Symex "directed" @@ fun () ->
                      Directed.run ~config:config.symex ?probe:hooks ~deadline t_sym ~ep ~cfg
                        ~ledger:[] ~on_ep:(place_bunches bunches)
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

(** [verify ?config ?ell p ~t ()] executes the full pipeline for T against
    probe [p]'s S and PoC, reusing whatever S side [p] already holds.

    ℓ defaults to the clone-detection result of {!Clone.shared_functions};
    pass [?ell] to override (the paper assumes ℓ is an input).  The report
    always carries whatever intermediate artifacts were produced, so failed
    runs remain debuggable.

    Robustness contract: this function does not raise.  A deadline expiry
    or an injected fault becomes [Failure "deadline exceeded: ..."] /
    [Failure "injected fault: ..."], and leaves [p] holding nothing.  A
    rescuable failure (budget or deadline exhaustion) is retried once
    under [escalate config], against the same probe and on the same
    deadline, unless that deadline has already expired.  The retry is
    recorded as ["symex-escalate"] in [degradations]; if it fails too,
    the first attempt's failure is returned verbatim. *)
let verify ?(config = default_config) ?ell (p : probe) ~(t : Isa.program) () : report =
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
    match run_attempt ~config:cfg ~deadline ?ell p ~t () with
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

(** [run ?config ?ell ~s ~t ~poc ()] is {!verify} against a fresh probe:
    a lone pair shares its S side with nothing but its own retry. *)
let run ?config ?ell ~(s : Isa.program) ~(t : Isa.program) ~(poc : string) () : report =
  verify ?config ?ell (probe ~s ~poc) ~t ()

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

(* Every config field that can change a verdict.  [inject] is deliberately
   excluded: fault injection perturbs a run, not the pair's identity — a
   resumed chaos batch must treat the journaled verdict of a fault-afflicted
   pair as settled, exactly as the uninterrupted run would have.  The
   fourth and last slots held the symbolic file size and the on/off switch
   of the escalated retry when both were config fields; they keep the
   values every build has run with ([Sym_state.sym_file_size] and [true]),
   so the marshalled bytes, hence every content key already written to a
   journal, stay as they were. *)
let config_fingerprint (c : config) =
  Marshal.to_string
    ( c.taint_mode,
      c.taint_granularity,
      c.symex,
      Sym_state.sym_file_size,
      c.max_steps,
      c.solver_budget,
      c.dynamic_cfg,
      c.deadline_s,
      true )
    []

(** [content_key ?config ?ell ~s ~t ~poc ()] is the verdict-cache key: a
    hex digest over the canonical content of both programs, the PoC bytes,
    the ℓ override, and every budget/config field that can change a
    verdict (fault injection excluded — see the journal docs).  Two
    invocations share a key iff a journaled verdict of one is valid for the
    other. *)
let content_key ?(config = default_config) ?ell ~(s : Isa.program) ~(t : Isa.program)
    ~(poc : string) () =
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          [
            Compile.program_digest s;
            Compile.program_digest t;
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
   state, and are not persisted.  The fields are laid out by [Wire], so
   the record is binary-safe and [decode_result] is total, returning
   [None] on any malformed record (a foreign or future-versioned journal
   must not crash the reader). *)

(* OPR3 appends two tail fields to OPR2: an explicit metrics presence
   flag (OPR2 inferred presence from end-of-record, which left no room
   for anything after it) and an optional provenance blob.  OPR2 records
   no longer decode: a reader counts them undecodable, and [--resume]
   re-runs their pairs. *)
let codec_version = "OPR3"

module W = Octo_util.Wire

(* A string field holding an encoded value — [Constraint_conflict]'s entry
   index and [elapsed_s]'s IEEE bits as decimal text, the provenance blob —
   rejects the record when it does not parse. *)
let parsed_string r parse = match parse (W.get_string r) with Some v -> v | None -> W.fail ()

let encode_result ~label ~key (r : report) =
  let b = Buffer.create 256 in
  W.put_magic b codec_version;
  W.put_string b label;
  W.put_string b key;
  W.put_string b r.ep;
  W.put_list b W.put_string r.ell;
  (match r.verdict with
  | Triggered { poc'; ptype } ->
      W.put_char b 'T';
      W.put_char b (match ptype with Type_I -> '1' | Type_II -> '2');
      W.put_string b poc'
  | Not_triggerable reason -> (
      W.put_char b 'N';
      match reason with
      | Ep_not_called -> W.put_char b 'e'
      | Program_dead -> W.put_char b 'd'
      | Unsat_model -> W.put_char b 'u'
      | Constraint_conflict k ->
          W.put_char b 'c';
          W.put_string b (string_of_int k))
  | Failure msg ->
      W.put_char b 'F';
      W.put_string b msg);
  W.put_list b W.put_string r.degradations;
  W.put_string b (Int64.to_string (Int64.bits_of_float r.elapsed_s));
  (* Metrics presence is explicit in OPR3 so the record can carry fields
     after it; provenance stays an optional tail — decoders treat
     end-of-record here as [provenance = None], so records written with
     collection off cost one flag byte over OPR2. *)
  W.put_option b Metrics.write_snapshot r.metrics;
  Option.iter (fun p -> W.put_string b (Provenance.encode p)) r.provenance;
  Buffer.contents b

let decode_result (s : string) : (string * string * report) option =
  W.decode s (fun r ->
      let version = W.get_magic r 4 in
      if version <> codec_version then W.fail ();
      let label = W.get_string r in
      let key = W.get_string r in
      let ep = W.get_string r in
      let ell = W.get_list r W.get_string in
      let verdict =
        match W.get_char r with
        | 'T' ->
            let ptype = match W.get_char r with '1' -> Type_I | '2' -> Type_II | _ -> W.fail () in
            Triggered { poc' = W.get_string r; ptype }
        | 'N' -> (
            match W.get_char r with
            | 'e' -> Not_triggerable Ep_not_called
            | 'd' -> Not_triggerable Program_dead
            | 'u' -> Not_triggerable Unsat_model
            | 'c' -> Not_triggerable (Constraint_conflict (parsed_string r int_of_string_opt))
            | _ -> W.fail ())
        | 'F' -> Failure (W.get_string r)
        | _ -> W.fail ()
      in
      let degradations = W.get_list r W.get_string in
      let elapsed_s = Int64.float_of_bits (parsed_string r Int64.of_string_opt) in
      let metrics = W.get_option r Metrics.read_snapshot in
      let provenance = if W.at_end r then None else Some (parsed_string r Provenance.decode) in
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
        } ))

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

(* Quarantine records share the journal framing, and a run's journal
   file, with verdicts but carry their own version tag, so [decode_result]
   rejects them cleanly (version mismatch -> [None]) and vice versa — one
   reader tells the two kinds apart by their magic. *)
let quarantine_codec_version = "OQR1"

let encode_quarantine (q : quarantine) =
  let b = Buffer.create 128 in
  W.put_magic b quarantine_codec_version;
  List.iter (W.put_string b) [ q.qlabel; q.qkey; q.qreason; q.qmessage; q.qbacktrace ];
  W.put_int b q.qattempts;
  Buffer.contents b

let decode_quarantine (s : string) : quarantine option =
  W.decode s (fun r ->
      if W.get_magic r 4 <> quarantine_codec_version then W.fail ();
      let qlabel = W.get_string r in
      let qkey = W.get_string r in
      let qreason = W.get_string r in
      let qmessage = W.get_string r in
      let qbacktrace = W.get_string r in
      let qattempts = W.get_int r in
      { qlabel; qkey; qreason; qmessage; qbacktrace; qattempts })

(* ------------------------------------------------------------------ *)
(* Streaming batch verification.

   One loop, in the calling domain, in every mode: admit, pull, start an
   attempt, await any completion, then settle, retry or exhaust.  Only
   the executor differs — how an attempt runs and how its end is seen:
   inline in the calling domain (serial Domain mode: window 1, no domain
   is ever spawned), on one of the worker domains the executor spawns, or
   in a forked {!Sandbox} child whose death is classified.  A worker in
   this process keeps the probe of its last attempt, so consecutive jobs
   of one S share S's crash run and taint.
   Everything else — the chaos draws, the retry's backoff, the counters,
   the callbacks and the stats — is decided by the loop alone. *)

type stream_stats = {
  st_pulled : int;  (** jobs pulled from the source *)
  st_settled : int;  (** jobs that produced a verdict (on_settle fired) *)
  st_quarantined : int;  (** jobs handed to [on_quarantine] *)
  st_peak_in_flight : int;  (** high-water mark of concurrently held jobs *)
  st_deferrals : int;
      (** always 0: admission has no deferral since the window is fixed.
          Kept only because the benchmark harness reads it. *)
}

(* One attempt of one job, as the loop hands it to an executor. *)
type attempt = {
  aj : job;
  ak : int;  (* 0-based attempt number *)
  adelay : float;  (* retry backoff the attempt sleeps before running *)
  afault : Faultinject.site option;  (* the synthetic fault it suffers *)
}

(* How an attempt ended.  A raising attempt carries its backtrace; a
   dead child has none (it died in another address space) but names its
   death as a provenance rung. *)
type outcome =
  | Settled of report
  | Died of { reason : string; message : string; backtrace : string; rung : string option }

(* The attempt-level fault sites, in draw order: the first that fires
   wins and the rest are not drawn.  Child deaths exist only under
   process isolation. *)
let domain_fault_sites = Faultinject.[ Worker_crash; Worker_stall ]
let process_fault_sites = Faultinject.[ Child_segv; Child_oom_kill; Worker_crash; Worker_stall ]

(* The body every executor runs: the retry backoff, the pre-run hook,
   the drawn worker fault, then the pipeline.  The faults fire outside
   [run]'s containment on purpose, so they exercise the driver's crash
   containment and retries; the stall site wedges for a fixed 0.25 s,
   then raises.

   [held] is the probe a worker keeps between its attempts: the attempt
   verifies against it when the job's S digest and PoC bytes match, and
   against a fresh probe, which replaces it, otherwise.  The slot is
   empty while the pipeline runs, so an attempt that raises in it leaves
   no probe behind. *)
let run_attempt ~config ?pre_run ~held a =
  if a.adelay > 0. then Unix.sleepf a.adelay;
  (match pre_run with None -> () | Some f -> f a.aj);
  (match a.afault with
  | Some Faultinject.Worker_crash ->
      raise (Faultinject.Injected "worker-crash: synthetic worker exception")
  | Some Faultinject.Worker_stall ->
      Unix.sleepf 0.25;
      raise (Faultinject.Injected "worker-stall: synthetic wedged worker")
  | _ -> ());
  let j = a.aj in
  let config = Option.value j.jconfig ~default:config in
  let sdig = Compile.program_digest j.js in
  let p =
    match !held with
    | Some p when p.psdig = sdig && p.ppoc = j.jpoc -> p
    | _ -> probe_digested ~sdig ~s:j.js ~poc:j.jpoc
  in
  held := None;
  let r = verify ~config ?ell:j.jell p ~t:j.jt () in
  held := Some p;
  r

(* The reason a job whose final attempt raised [msg] (printed) fails or is
   quarantined with.  The injected stall site prints as
   "Injected(worker-stall: ...)" in both isolation modes (a child
   transports the printed form). *)
let exn_reason msg =
  if String.starts_with ~prefix:"Injected(worker-stall" msg then "worker stalled"
  else "worker crashed"

(* A worker in this process, inline or a pool domain: each holds its own
   probe slot and turns every raise of an attempt into [Died]. *)
let worker_here ~config ?pre_run () =
  let held = ref None in
  fun a ->
    match run_attempt ~config ?pre_run ~held a with
    | r -> Settled r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        let message = Printexc.to_string e in
        Died
          {
            reason = exn_reason message;
            message;
            backtrace = Printexc.raw_backtrace_to_string bt;
            rung = None;
          }

(* An attempt's end as a forked child's death. *)
let outcome_of_death death =
  let died reason message rung = Died { reason; message; backtrace = ""; rung = Some rung } in
  match death with
  | Sandbox.Clean payload -> (
      match decode_result payload with
      | Some (_, _, r) -> Settled r
      | None -> died "worker crashed" "child returned an undecodable verdict frame" "child-torn")
  | Sandbox.Child_exn msg -> died (exn_reason msg) msg "child-exn"
  | Sandbox.Segv -> died "worker crashed" "child segfaulted (SIGSEGV)" "child-segv"
  | Sandbox.Oom why -> died "oom" ("child out of memory: " ^ why) "child-oom"
  | Sandbox.Cpu -> died "worker crashed" "child exceeded RLIMIT_CPU (SIGXCPU)" "child-cpu"
  | Sandbox.Deadline_kill ->
      died "worker stalled" "child killed by parent at deadline" "child-deadline-kill"
  | Sandbox.Torn why -> died "worker crashed" ("child pipe protocol torn: " ^ why) "child-torn"
  | Sandbox.Other why ->
      died "worker crashed" ("child died unexpectedly: " ^ why) "child-other"

(* An executor starts attempts and reports their ends.  [await] blocks
   until at least one started attempt has ended — the process executor
   alone may return [] after a quiet 0.05 s, which gives the telemetry
   sampler a steady cadence while every child is busy. *)
type executor = {
  start : attempt -> unit;
  await : unit -> (attempt * outcome) list;
  stop : unit -> unit;
}

let take_all q =
  let l = List.of_seq (Queue.to_seq q) in
  Queue.clear q;
  l

(* Serial: [start] queues the attempt and [await] runs it to its end, so
   the loop ticks before the attempt it counts, as with every executor. *)
let inline_executor attempt =
  let todo = Queue.create () in
  {
    start = (fun a -> Queue.add a todo);
    await = (fun () -> List.map (fun a -> (a, attempt a)) (take_all todo));
    stop = ignore;
  }

(* Pooled: [jobs] worker domains, each running its own [worker ()], take
   attempts from [todo] and post their ends to [ended]; one lock and one
   condition cover both queues.  No exception escapes a worker (it turns
   every raise into [Died]).
   [stop] lets attempts already taken finish and joins every worker;
   attempts no worker has taken are dropped, since a stopping loop never
   settles them. *)
let pool_executor ~jobs worker =
  let lock = Mutex.create () and changed = Condition.create () in
  let todo = Queue.create () and ended = Queue.create () in
  let closed = ref false in
  let rec work attempt =
    Mutex.lock lock;
    while Queue.is_empty todo && not !closed do
      Condition.wait changed lock
    done;
    let next = if !closed then None else Queue.take_opt todo in
    Mutex.unlock lock;
    match next with
    | None -> ()
    | Some a ->
        let o = attempt a in
        Mutex.protect lock (fun () ->
            Queue.add (a, o) ended;
            Condition.broadcast changed);
        work attempt
  in
  let workers = Array.init jobs (fun _ -> Domain.spawn (fun () -> work (worker ()))) in
  {
    start =
      (fun a ->
        Mutex.protect lock (fun () ->
            Queue.add a todo;
            Condition.broadcast changed));
    await =
      (fun () ->
        Mutex.protect lock (fun () ->
            while Queue.is_empty ended do
              Condition.wait changed lock
            done;
            take_all ended));
    stop =
      (fun () ->
        Mutex.protect lock (fun () ->
            closed := true;
            Condition.broadcast changed);
        Array.iter Domain.join workers);
  }

(* Process-isolated: one forked child per attempt, multiplexed over one
   select loop.  Single-domain by construction: OCaml 5.1 refuses
   [Unix.fork] permanently once any domain has EVER been spawned in the
   process (the restriction latches; joining does not lift it), so this
   executor spawns NO worker domains and callers must reach it before the
   process's first Domain-mode batch.  [child_rss_kb] keeps the running
   maximum of the reaped children's max RSS, for telemetry. *)
let process_executor ~config ~limits ~child_rss_kb ?pre_run () =
  let active = ref [] in
  let start a =
    let j = a.aj in
    let cfg = Option.value j.jconfig ~default:config in
    let die =
      match a.afault with
      | Some Faultinject.Child_segv -> `Segv
      | Some Faultinject.Child_oom_kill -> `Oom_kill
      | _ -> `None
    in
    (* The wall-clock kill is a hard backstop well behind the cooperative
       deadline (which already absorbs the escalated retry); no per-job deadline
       means the parent never kills on time. *)
    let kill_after_s = Option.map (fun d -> (d *. 4.0) +. 1.0) cfg.deadline_s in
    (* The child ships its settled report as its one frame, with an
       empty key: the parent reads only the report, and the journal's
       keys come from the run's own entries.  Exceptions escape into
       [Sandbox.spawn]'s transport.  Its probe slot starts empty and dies
       with it, so a child shares nothing. *)
    let payload () =
      encode_result ~label:j.label ~key:"" (run_attempt ~config ?pre_run ~held:(ref None) a)
    in
    active := (Sandbox.spawn ~limits ?kill_after_s ~die payload, a) :: !active
  in
  let await () =
    List.iter (fun (c, _) -> if Sandbox.deadline_expired c then Sandbox.kill c) !active;
    let readable =
      match Unix.select (List.map (fun (c, _) -> Sandbox.fd c) !active) [] [] 0.05 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    let finished, still =
      List.partition (fun (c, _) -> List.memq (Sandbox.fd c) readable && Sandbox.drain c) !active
    in
    active := still;
    List.map
      (fun (c, a) ->
        let death, maxrss_kb = Sandbox.reap c in
        child_rss_kb := max !child_rss_kb maxrss_kb;
        (a, outcome_of_death death))
      finished
  in
  { start; await; stop = ignore }

(* Callback guards: a raising hook is logged and never aborts the run. *)
let settle_hook on_settle j r =
  match on_settle with
  | None -> ()
  | Some f -> (
      try f j r
      with e ->
        Log.err (fun m ->
            m "run_stream: on_settle for %s raised %s" j.label (Printexc.to_string e)))

let quarantine_hook f q =
  try f q
  with e ->
    Log.err (fun m ->
        m "run_stream: on_quarantine for %s raised %s" q.qlabel (Printexc.to_string e))

(** [run_stream ?config ?jobs ?retries ?window ?on_settle ?on_quarantine
    next] verifies a stream of jobs pulled lazily from [next] — the
    one batch driver ({!run_all} collects over it).  It never
    materializes the batch: [next ()] is called (from the calling domain
    only) each time the admission window has a free slot, so peak memory
    is bounded by the window, not the corpus size.

    Admission control: at most [window] jobs (default [max 4 (2 * jobs)];
    1 when serial) are in flight at once; the generator behind [next] is
    simply not pulled while the window is full.  A retry takes priority
    over a fresh pull, so an endless source cannot starve it.

    Crash containment: a job whose attempt raises (or whose child dies)
    gets [retries] extra attempts, each sleeping
    {!Octo_util.Pool.backoff_delay}'s capped exponential backoff before
    it runs.  The loop draws every attempt's synthetic fault from the
    job's injector before starting it, so a retry advances the stream in
    every mode and a killed-and-resumed run replays the same decisions.
    A job that still fails after the budget is handed to [on_quarantine]
    with its reason, printable exception, backtrace and attempt count — it
    does NOT settle and does not fail the batch.  Without [on_quarantine],
    exhausted jobs settle as [Failure "worker crashed: ..."].

    There is no stall watchdog: a domain cannot be killed, so wedged
    workers are bounded by the per-job cooperative deadline
    ([config.deadline_s]), and under process isolation by the parent's
    deadline-kill.  The injected [Worker_stall] site sleeps then raises,
    taking the crash path above with reason ["worker stalled"]; an
    exhausted stall counts in [Pool_stalls] and the telemetry tally.

    [on_settle job report] and [on_quarantine q] fire exactly once per
    job, from the calling domain, in completion order. *)
let run_stream ?(config = default_config) ?(jobs = 1) ?(retries = 0) ?window
    ?(isolate = Domains) ?limits ?pre_run ?on_settle ?on_quarantine
    (next : unit -> job option) : stream_stats =
  let jobs = Octo_util.Pool.effective_jobs jobs in
  let serial = isolate = Domains && jobs <= 1 in
  (* A serial run holds one job at a time.  Otherwise the default is twice
     the workers; in process isolation the window IS the concurrency (one
     child per admitted job), so that reads "up to 2*jobs live children". *)
  let window =
    if serial then 1 else match window with Some w -> max 1 w | None -> max 4 (2 * jobs)
  in
  let child_rss_kb = ref 0 in
  let exec, fault_sites =
    match isolate with
    | Processes ->
        let limits = Option.value limits ~default:Sandbox.no_limits in
        (process_executor ~config ~limits ~child_rss_kb ?pre_run (), process_fault_sites)
    | Domains when serial -> (inline_executor (worker_here ~config ?pre_run ()), domain_fault_sites)
    | Domains -> (pool_executor ~jobs (worker_here ~config ?pre_run), domain_fault_sites)
  in
  let pulled = ref 0 and settled = ref 0 and quarantined = ref 0 in
  let in_flight = ref 0 and peak = ref 0 in
  let retried = ref 0 and stalls = ref 0 and exhausted_src = ref false in
  let pending : (job * int) Queue.t = Queue.create () in
  let progress () =
    {
      Telemetry.pulled = !pulled;
      settled = !settled;
      quarantined = !quarantined;
      in_flight = !in_flight;
      window;
      retries = !retried;
      stalls = !stalls;
      child_rss_kb = !child_rss_kb;
    }
  in
  let settle j r =
    incr settled;
    settle_hook on_settle j r
  in
  let start (j, k) =
    let cfg = Option.value j.jconfig ~default:config in
    let afault = List.find_opt (Faultinject.fire cfg.inject) fault_sites in
    let adelay =
      if k = 0 then 0. else Octo_util.Pool.backoff_delay ~key:(Hashtbl.hash j.label) ~attempt:k ()
    in
    exec.start { aj = j; ak = k; adelay; afault };
    incr in_flight;
    if !in_flight > !peak then peak := !in_flight
  in
  let rec admit () =
    if !in_flight < window && not (Queue.is_empty pending && !exhausted_src) then begin
      (match Queue.take_opt pending with
      | Some retry -> start retry
      | None -> (
          match next () with
          | None -> exhausted_src := true
          | Some j ->
              incr pulled;
              start (j, 0)));
      admit ()
    end
  in
  let ended (a, outcome) =
    decr in_flight;
    let j = a.aj and k = a.ak in
    match outcome with
    | Settled r -> settle j r
    | Died { reason; message; rung; _ } when k < retries ->
        (* Each retry sleeps its backoff once, inside the retried attempt. *)
        incr retried;
        Metrics.incr Metrics.Pool_retries;
        Metrics.incr Metrics.Pool_backoffs;
        let what =
          match rung with
          | None -> "raised " ^ message
          | Some _ -> Printf.sprintf "child died (%s: %s)" reason message
        in
        Log.warn (fun m -> m "run_stream: %s %s; retrying (%d/%d)" j.label what (k + 1) retries);
        Queue.add (j, k + 1) pending
    | Died { reason; message; backtrace; rung } -> (
        if reason = "worker stalled" then begin
          incr stalls;
          Metrics.incr Metrics.Pool_stalls
        end;
        match on_quarantine with
        | Some f ->
            incr quarantined;
            quarantine_hook f
              {
                qlabel = j.label;
                qkey = job_key ~config j;
                qreason = reason;
                qmessage = message;
                qbacktrace = backtrace;
                qattempts = k + 1;
              }
        | None ->
            (* A dead child's classification rides as a provenance rung, so
               `explain` shows WHY it died. *)
            let provenance =
              match rung with
              | Some rung when Provenance.is_on () ->
                  let events = [ Provenance.Rung { rung; failure = message } ] in
                  Some { Provenance.events; dropped = 0 }
              | _ -> None
            in
            settle j { (failure_report (reason ^ ": " ^ message)) with provenance })
  in
  (* The tick samples after admission and before the wait, so in-flight
     counts the attempts being waited on (a serial run shows 1). *)
  let rec loop () =
    admit ();
    if !in_flight > 0 then begin
      Telemetry.tick progress;
      List.iter ended (exec.await ());
      loop ()
    end
  in
  Fun.protect ~finally:exec.stop loop;
  Telemetry.sample_now (progress ());
  {
    st_pulled = !pulled;
    st_settled = !settled;
    st_quarantined = !quarantined;
    st_peak_in_flight = !peak;
    st_deferrals = 0;
  }


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

(* Settled jobs are matched back to their input position by physical
   identity, so equal or equally-labelled jobs never cross reports. *)
module Job_pos = Hashtbl.Make (struct
  type t = job

  let equal = ( == )
  let hash j = Hashtbl.hash j.label
end)

(* The fixed-batch driver is a collector over {!run_stream}: a cursor
   over the batch, an on-settle hook storing each report at its input
   position, and a window of one job per worker in both isolation modes.
   Without [on_quarantine] every job settles, so every position is
   filled. *)
let run_all ?(config = default_config) ?(jobs = 1) ?(retries = 0) ?(isolate = Domains) ?limits
    ?pre_run ?on_settle (batch : job list) : (string * report) list =
  (* One fresh copy per position: duplicates in [batch] stay distinct. *)
  let copies = List.map (fun j -> { j with label = j.label }) batch in
  let pos = Job_pos.create (List.length copies) in
  List.iteri (fun i j -> Job_pos.add pos j i) copies;
  let reports = Array.make (List.length copies) None in
  let settle j r =
    reports.(Job_pos.find pos j) <- Some r;
    Option.iter (fun f -> f j.label r) on_settle
  in
  let (_ : stream_stats) =
    run_stream ~config ~jobs ~retries ~window:(Octo_util.Pool.effective_jobs jobs) ~isolate
      ?limits ?pre_run ~on_settle:settle (stream_of_list copies)
  in
  List.mapi (fun i j -> (j.label, Option.get reports.(i))) batch

(* ------------------------------------------------------------------ *)
(* Deterministic dump ordering. *)

(* Registry labels are integers-as-strings; compare those numerically so
   "10" sorts after "9", everything else lexicographically. *)
let compare_labels a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some x, Some y -> compare x y
  | _ -> compare a b

(** [sort_dump entries] orders decoded journal records [(label, key, _)]
    for display: label (numeric-aware), then content key.  Records sit
    in a journal in settle order, and one label can legitimately appear
    under several keys (config changes across resumes), so the key
    tiebreak keeps the order independent of timing. *)
let sort_dump entries =
  List.sort
    (fun (l1, k1, _) (l2, k2, _) ->
      match compare_labels l1 l2 with 0 -> compare k1 k2 | c -> c)
    entries
