(* The verdict of one pair: the paper's result classes, the report that
   carries a verdict with its artifacts, and their renderings. *)

module Taint = Octo_taint.Taint
module Directed = Octo_symex.Directed
module Metrics = Octo_util.Metrics

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

let pp_verdict_prov prov ppf v =
  match v with
  | Not_triggerable (Constraint_conflict k) -> (
      match conflict_detail prov with
      | Some d ->
          Fmt.pf ppf "NOT TRIGGERABLE (constraints conflict at ep entry #%d: %s)" k d
      | None -> pp_verdict ppf v)
  | _ -> pp_verdict ppf v

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
      section "escalated retry" (function Provenance.Rung _ -> true | _ -> false);
      pf "";
      pf "degradations: %s"
        (match r.degradations with [] -> "(none)" | ds -> String.concat "," ds);
      pf "provenance  : %d event(s), %d dropped" (Provenance.event_count p)
        p.Provenance.dropped);
  Buffer.contents b

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
