(* Command-line interface to the OCTOPOCS reproduction.

   Subcommands:
     verify <idx>     run the full pipeline on one Table II pair
     verify-all       run all 15 pairs (optionally in parallel with --jobs,
                      journaled with --journal, resumable with --resume)
                      and print the Table II summary
     inspect <idx>    show the pair's programs, PoC hexdump and ℓ
     fuzz <idx>       run the AFLFast baseline on the pair's T binary
     explain <idx>    re-verify one pair with provenance collection on and
                      print the deterministic explanation narrative (why
                      the verdict: taint bunches, forced branches, pin
                      conflicts with minimized cores, crash site); with
                      --journal PATH, render a journaled record instead
     journal <path>   dump a verification journal (one line per settled
                      pair, sorted by label — diffable across runs)
     trace <path>     validate a --trace JSONL file against the span
                      schema (balanced begin/end, monotonic timestamps)

   Observability: verify and verify-all take --trace PATH (Chrome
   trace-viewer JSONL of the pipeline's phase spans), --metrics (per-pair
   counter/latency breakdowns, journaled with the verdicts) and
   --provenance (per-pair causal evidence logs, journaled as OPR3 tail
   fields and rendered by explain).

   Exit codes report the verdict, not the paper-match status:
     0 = Triggered, 1 = Not_triggerable, 2 = Failure, 3 = tool/worker crash.
   [verify] maps its single verdict; [verify-all] reports the WORST verdict
   across the batch under the same convention (the registry contains one
   expected-Failure pair, so a faithful full run exits 2).  A bad pair
   index is a structured one-line error and exit 2, never a backtrace. *)

open Cmdliner
module Registry = Octo_targets.Registry
module Source = Octo_targets.Source
module Scan = Octo_targets.Scan
module Detect = Octo_clone.Detect
module B = Octo_util.Bytes_util
module Faultinject = Octo_util.Faultinject
module Journal = Octo_util.Journal
module Log = Octo_util.Log
module Metrics = Octo_util.Metrics
module Telemetry = Octo_util.Telemetry
module Trace = Octo_util.Trace
module Report = Octo_report.Report

let say fmt = Format.printf (fmt ^^ "@.")

let structured_error fmt =
  Format.kasprintf (fun msg -> Format.eprintf "octopocs: error: %s@." msg; 2) fmt

(* A NaN or negative --deadline is a usage error.  0 stays legal (the
   already-expired drill), and a budget past the clock's range means no
   deadline at all. *)
let with_valid_deadline deadline f =
  match deadline with
  | Some d when Float.is_nan d || d < 0.0 ->
      structured_error "--deadline must be a number of seconds >= 0 (got %g)" d
  | _ -> f ()

(* Per-pair pipeline configuration from the shared robustness flags.  The
   chaos seed derives one independent injector per pair (splitmix64 mixing
   of the pair index), so a batch's fault schedule does not depend on which
   worker domain picks up which job. *)
let config_for ?(dynamic = false) ?(chaos_sites = []) ~deadline ~chaos_seed idx =
  let inject =
    match (chaos_sites, chaos_seed) with
    | [], None -> Faultinject.none
    | [], Some seed -> Faultinject.create ~seed:(seed lxor (idx * 0x9E3779B9)) ()
    | _ :: _, _ ->
        (* Named-sites mode: only the sites the user listed fire, at their
           listed rates; everything else stays silent (rate 0). *)
        let seed = Option.value chaos_seed ~default:0xC0FFEE in
        Faultinject.create
          ~seed:(seed lxor (idx * 0x9E3779B9))
          ~rate:0.0 ~site_rates:chaos_sites ()
  in
  { Octopocs.default_config with
    dynamic_cfg = dynamic; deadline_s = deadline; inject }

(* A pair index from the command line is untrusted input: out-of-range or
   negative values get a one-line structured error and exit 2, never an
   uncaught exception trace. *)
let with_case idx f =
  match Registry.find_opt idx with
  | Some c -> f c
  | None ->
      Format.eprintf "octopocs: error: pair index %d out of range (valid: 1-%d)@." idx
        (List.length Registry.all);
      2

let pp_degradations (r : Octopocs.report) =
  if r.degradations <> [] then
    say "  degraded: %s" (String.concat " -> " r.degradations)

(* Observability session: enable collection/tracing around [f] and always
   tear it down (the trace file must be flushed and closed even when the
   run fails).  Enable/disable happen outside any span, as Trace requires. *)
let with_observability ?(provenance = false) ~trace ~metrics f =
  if metrics then Metrics.enable ();
  if provenance then Octopocs.Provenance.enable ();
  (match trace with Some path -> Trace.enable ~path | None -> ());
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Metrics.disable ();
      Octopocs.Provenance.disable ())
    f

let pp_pair_metrics ~indent (m : Metrics.snapshot) =
  say "%sphases  : %s" indent (Fmt.str "%a" Metrics.pp_phases m);
  (* The same percentile extraction the report aggregator uses, so a pair's
     breakdown and a later `report` over its journal quote identical
     numbers (log2-bucket lower bounds, ns). *)
  let pcts =
    List.filter_map
      (fun p ->
        match Metrics.percentile m p 50.0 with
        | None -> None
        | Some p50 ->
            let v pct = Option.value ~default:0 (Metrics.percentile m p pct) in
            Some
              (Printf.sprintf "%s=%d/%d/%d" (Metrics.phase_name p) p50 (v 90.0) (v 99.0)))
      Metrics.all_phases
  in
  if pcts <> [] then say "%sp50/p90/p99: %s (ns)" indent (String.concat " " pcts);
  say "%scounters: %s" indent (Fmt.str "%a" Metrics.pp_counters m)

let run_one ?(dynamic = false) ?deadline ?chaos_seed (c : Registry.case) :
    Octopocs.report =
  say "Pair %d: S=%s(%s)  T=%s(%s)  %s [%s]" c.idx c.s.pname c.s_version c.t.pname c.t_version
    c.vuln_id c.cwe;
  let config = config_for ~dynamic ~deadline ~chaos_seed c.idx in
  let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
  say "  ep      : %s" r.ep;
  say "  ℓ       : %s" (String.concat ", " r.ell);
  (match r.taint with
  | Some t ->
      say "  bunches : %d (ep entered %d times, %d primitive bytes)"
        (List.length t.bunches) t.ep_entries t.marked_offsets
  | None -> ());
  (match r.symex with
  | Some s ->
      (* Resumed loop retries inherit their prefix: steps and decisions
         count the work executed, not the work of [runs] full replays. *)
      say "  symex   : %d run(s), %d loop retries (%d resumed); executed %d steps, %d branch decisions"
        s.runs s.loop_retries s.resumed s.total_steps s.branches_decided
  | None -> ());
  (* pp_verdict_prov upgrades a Constraint_conflict verdict in place with
     the conflicting bunch and T-side constraint when provenance is on. *)
  say "  verdict : %a  (expected %s)"
    (Octopocs.pp_verdict_prov r.provenance)
    r.verdict
    (Registry.expected_to_string c.expected);
  pp_degradations r;
  say "  elapsed : %.3fs" r.elapsed_s;
  (match r.metrics with Some m -> pp_pair_metrics ~indent:"  " m | None -> ());
  (match r.provenance with
  | Some p ->
      say "  prov    : %d event(s), %d dropped, conflict core %d"
        (Octopocs.Provenance.event_count p) p.Octopocs.Provenance.dropped
        (Octopocs.Provenance.conflict_core_size p)
  | None -> ());
  (match r.verdict with
  | Octopocs.Triggered { poc'; _ } -> say "  poc' hexdump:@.%s" (B.hexdump poc')
  | _ -> ());
  let got = Octopocs.verdict_class r.verdict in
  let want = Registry.expected_to_string c.expected in
  if got = want then say "  MATCH" else say "  MISMATCH (%s vs %s)" got want;
  r

(* The 0/1/2/3 verdict-exit convention shared by verify and verify-all.
   Worker crashes and stalls are the tool failing, not the verification
   failing, and map to the tool-crash code. *)
let crashed_verdict (r : Octopocs.report) =
  match r.verdict with
  | Octopocs.Failure msg ->
      let pre p = String.length msg >= String.length p && String.sub msg 0 (String.length p) = p in
      pre "worker crashed" || pre "worker stalled"
  | _ -> false

let verdict_exit (r : Octopocs.report) =
  match r.verdict with
  | Octopocs.Triggered _ -> 0
  | Octopocs.Not_triggerable _ -> 1
  | Octopocs.Failure _ -> if crashed_verdict r then 3 else 2

(* The verdict tally of a streaming run (verify-all --corpus and scan),
   updated from worker context under its own lock. *)
module Tally = struct
  type t = {
    lock : Mutex.t;
    mutable triggered : int;
    mutable not_trig : int;
    mutable failures : int;
    mutable crashed : int;
    mutable cached : int;
    mutable quar_prior : int;
    mutable known : int;  (* pairs with an expected verdict class *)
    mutable matched : int;
    mutable worst : int;  (* worst verdict exit code *)
  }

  let create () =
    {
      lock = Mutex.create ();
      triggered = 0;
      not_trig = 0;
      failures = 0;
      crashed = 0;
      cached = 0;
      quar_prior = 0;
      known = 0;
      matched = 0;
      worst = 0;
    }

  let add ?expected t (r : Octopocs.report) =
    Mutex.protect t.lock @@ fun () ->
    (match r.verdict with
    | Octopocs.Triggered _ -> t.triggered <- t.triggered + 1
    | Octopocs.Not_triggerable _ -> t.not_trig <- t.not_trig + 1
    | Octopocs.Failure _ ->
        if crashed_verdict r then t.crashed <- t.crashed + 1 else t.failures <- t.failures + 1);
    t.worst <- max t.worst (verdict_exit r);
    match expected with
    | Some want ->
        t.known <- t.known + 1;
        if Octopocs.verdict_class r.verdict = want then t.matched <- t.matched + 1
    | None -> ()

  (* A pair reused from the journal counts as cached and as its verdict. *)
  let add_cached ?expected t r =
    Mutex.protect t.lock (fun () -> t.cached <- t.cached + 1);
    add ?expected t r

  let add_quarantined_prior t =
    Mutex.protect t.lock (fun () -> t.quar_prior <- t.quar_prior + 1)

  (* The "quarantined-prior=N" fragment of the progress line, if any. *)
  let quar_prior_note t =
    if t.quar_prior > 0 then Printf.sprintf " quarantined-prior=%d" t.quar_prior else ""

  let say_summary t ~quarantined =
    say "summary : %d triggered / %d not-triggerable / %d failure / %d crashed (%d cached, %d quarantined)"
      t.triggered t.not_trig t.failures t.crashed t.cached (quarantined + t.quar_prior);
    if t.known > 0 then say "expected: %d/%d classes match" t.matched t.known
end

(* The batch's pool-level counters.  Metrics cells live for the whole
   process, so the batch view is a diff against the baseline [m0]. *)
let say_pool m0 =
  let batch = Metrics.diff (Metrics.aggregate ()) m0 in
  say "pool    : retries=%d stalls=%d backoffs=%d"
    (Metrics.counter_value batch Metrics.Pool_retries)
    (Metrics.counter_value batch Metrics.Pool_stalls)
    (Metrics.counter_value batch Metrics.Pool_backoffs)

let worker_kind = function
  | Octopocs.Domains -> "domain(s)"
  | Octopocs.Processes -> "process(es)"

let matches (c : Registry.case) (r : Octopocs.report) =
  Octopocs.verdict_class r.verdict = Registry.expected_to_string c.expected

(* Shared robustness flags. *)
let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SECS"
           ~doc:"Wall-clock budget per pair; expiry yields a Failure verdict, never a hang.")

let chaos_seed_arg =
  Arg.(value & opt (some int) None
       & info [ "chaos-seed" ] ~docv:"SEED"
           ~doc:"Enable deterministic fault injection, deriving one independent \
                 fault stream per pair from $(docv).")

(* Shared observability flags. *)
let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"PATH"
           ~doc:"Write phase spans (taint/cfg/symex/solve/combine/verify) to $(docv) \
                 as Chrome-trace-viewer JSONL; load it in chrome://tracing or \
                 ui.perfetto.dev.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Collect per-pair counters and per-phase latency, print a breakdown \
                 per pair plus batch totals, and journal each pair's snapshot with \
                 its verdict.")

let provenance_arg =
  Arg.(value & flag
       & info [ "provenance" ]
           ~doc:"Collect per-pair causal evidence logs (taint bunches, forced \
                 branches, pin conflicts with minimized cores, crash sites); \
                 verdict lines name the conflicting constraint, and journaled \
                 records carry the log for a later $(b,explain --journal).")

let dynamic_arg =
  Arg.(value & flag
       & info [ "dynamic-cfg" ]
           ~doc:"Repair CFG-recovery failures with dynamic devirtualization")

(* Shared logging flags.  [apply_logging] runs first in every command body
   so even flag-validation warnings respect the chosen threshold. *)
let log_level_arg =
  let level_conv =
    Arg.enum
      [ ("error", Log.Error); ("warn", Log.Warn); ("info", Log.Info); ("debug", Log.Debug) ]
  in
  Arg.(value & opt (some level_conv) None
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Logging threshold: $(b,error), $(b,warn) (default), $(b,info) or \
                 $(b,debug).  Overrides the OCTOPOCS_LOG environment variable.")

let log_json_arg =
  Arg.(value & opt (some string) None
       & info [ "log-json" ] ~docv:"PATH"
           ~doc:"Mirror every emitted log line to $(docv) as JSONL \
                 ({\"ts\",\"level\",\"msg\"}), appending.")

let apply_logging level json =
  (match level with Some l -> Log.set_level l | None -> ());
  match json with Some p -> Log.set_jsonl p | None -> ()

let telemetry_arg =
  Arg.(value & opt ~vopt:(Some "") (some string) None
       & info [ "telemetry" ] ~docv:"PATH"
           ~doc:"Sample run health (throughput, pool retries/stalls, parent and \
                 child RSS, GC words, latency histograms) into an OTL1 journal \
                 at $(docv) while the corpus streams; with no $(docv), defaults \
                 to telemetry.jrnl beside the --journal.  Read it back with \
                 $(b,octopocs report --telemetry).")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Render a live single-line progress meter (settled count, \
                 recent throughput, ETA, quarantine count) on stderr.  \
                 Automatically disabled when stderr is not a TTY.")

let verify_cmd =
  let idx = Arg.(required & pos 0 (some int) None & info [] ~docv:"IDX") in
  Cmd.v (Cmd.info "verify" ~doc:"Verify one Table II pair")
    Term.(const (fun dynamic deadline chaos_seed trace metrics provenance idx ->
              with_valid_deadline deadline @@ fun () ->
              with_case idx (fun c ->
                  with_observability ~provenance ~trace ~metrics (fun () ->
                      verdict_exit (run_one ~dynamic ?deadline ?chaos_seed c))))
          $ dynamic_arg $ deadline_arg $ chaos_seed_arg $ trace_arg $ metrics_arg
          $ provenance_arg $ idx)

(* ------------------------------------------------------------------ *)
(* verify-all: journaled, resumable batch verification. *)

(* Test hook for the CI kill-and-resume smoke job: pacing each settle makes
   "SIGKILL lands mid-batch" a certainty instead of a race against a
   sub-second run. *)
let settle_delay_s =
  match Sys.getenv_opt "OCTOPOCS_SETTLE_DELAY" with
  | Some s -> ( match float_of_string_opt s with Some d when d > 0. -> d | _ -> 0.)
  | None -> 0.

type batch_outcome = Fresh of Octopocs.report | Cached of Octopocs.report

let report_of = function Fresh r | Cached r -> r

(* ------------------------------------------------------------------ *)
(* Streaming corpus verification: pull pairs one at a time from a
   {!Source}, verify under a bounded in-flight window, journal each
   verdict into the shard its content key routes to, and quarantine pairs
   that exhaust the retry budget instead of failing the batch.  Peak
   memory is bounded by the window — the corpus is never materialised. *)

(* Label-keyed injector derivation: corpus labels are strings, so the
   per-pair fault stream comes from an FNV mix of the label, independent
   of pull order and of which worker runs the pair.  --poison arms only
   the worker-crash site (the poison-pair drill); --chaos-seed alone
   keeps the all-sites schedule of the registry path. *)
let config_for_label ?(chaos_sites = []) ~deadline ~chaos_seed ~poison label =
  (* --poison is sugar for --chaos-site worker-crash=RATE; both compose
     into one named-sites injector (rate 0.0 base — only listed sites
     fire). *)
  let site_rates =
    (match poison with
    | Some p when p > 0.0 -> [ (Faultinject.Worker_crash, p) ]
    | _ -> [])
    @ chaos_sites
  in
  let inject =
    match (site_rates, chaos_seed) with
    | [], None -> Faultinject.none
    | [], Some seed -> Faultinject.create ~seed:(Faultinject.seed_for ~seed label) ()
    | _ :: _, _ ->
        let seed = Option.value chaos_seed ~default:0xC0FFEE in
        Faultinject.create
          ~seed:(Faultinject.seed_for ~seed label)
          ~rate:0.0 ~site_rates ()
  in
  { Octopocs.default_config with deadline_s = deadline; inject }

(* Test hook for the sandbox smoke job: the named pair allocates
   OCTOPOCS_OOM_MB MiB (default 512) in its worker just before its
   pipeline.  Under --isolate proc --rlimit-as below that figure the
   child's allocation raises Out_of_memory, which the sandbox converts
   into a classified OOM death; in Domain mode (no per-job rlimit
   possible) the allocation simply succeeds and is dropped. *)
let oom_pre_run =
  match Sys.getenv_opt "OCTOPOCS_OOM_LABEL" with
  | None -> None
  | Some label ->
      let mb =
        match Sys.getenv_opt "OCTOPOCS_OOM_MB" with
        | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 512)
        | None -> 512
      in
      Some
        (fun j ->
          if Octopocs.job_label j = label then
            ignore
              (Sys.opaque_identity (Array.init mb (fun _ -> Bytes.make (1 lsl 20) 'x'))))

type corpus_journal =
  | No_journal
  | Single of Journal.writer
  | Dir of Journal.Sharded.w

let quarantine_journal_path ~journal_path ~shards ~quarantine_path =
  match quarantine_path with
  | Some p -> Some p
  | None -> (
      (* A sharded journal directory gets a quarantine journal by default:
         the directory is the batch's durable state, and a quarantined
         pair is part of that state. *)
      match journal_path with
      | Some dir when shards > 1 -> Some (Filename.concat dir "quarantine.jrnl")
      | _ -> None)

(* Shared write-ahead-journal plumbing for the streaming runners
   (verify-all --corpus and scan): the verdict journal (a file for
   --shards 1, a shard directory otherwise), the replayed prior verdicts,
   the quarantine journal, and the prior quarantine records.  Fresh runs
   refuse to clobber existing journals of either form. *)
type stream_journals = {
  sj_writer : corpus_journal;
  sj_replayed : (string * string * Octopocs.report) list;
  sj_quarantine : Journal.writer option;
  sj_quarantined_prior : (string, Octopocs.quarantine) Hashtbl.t;
}

let close_stream_journals sj =
  (match sj.sj_writer with
  | No_journal -> ()
  | Single w -> Journal.close w
  | Dir w -> Journal.Sharded.close w);
  match sj.sj_quarantine with Some w -> Journal.close w | None -> ()

let open_stream_journals ~journal_path ~resume ~shards ~quarantine_path =
  let qpath = quarantine_journal_path ~journal_path ~shards ~quarantine_path in
  let journal_setup =
    match journal_path with
    | None -> Ok (No_journal, [])
    | Some path when shards <= 1 ->
        if resume then begin
          let w, records = Journal.open_resume ~path () in
          Ok (Single w, List.filter_map Octopocs.decode_result records)
        end
        else if Sys.file_exists path then
          Error
            (structured_error
               "journal %s already exists; pass --resume to continue it or remove it first"
               path)
        else Ok (Single (Journal.create ~path ()), [])
    | Some dir -> (
        if resume then
          match Journal.Sharded.open_resume ~dir ~shards () with
          | w, recovered ->
              let replayed =
                Array.to_list recovered |> List.concat
                |> List.filter_map Octopocs.decode_result
              in
              Ok (Dir w, replayed)
          | exception Failure msg -> Error (structured_error "%s" msg)
        else if Journal.Sharded.exists dir then
          Error
            (structured_error
               "journal %s already exists; pass --resume to continue it or remove it first"
               dir)
        else Ok (Dir (Journal.Sharded.create ~dir ~shards ()), []))
  in
  match journal_setup with
  | Error code -> Error code
  | Ok (jw, replayed) -> (
      let close_jw () =
        match jw with
        | No_journal -> ()
        | Single w -> Journal.close w
        | Dir w -> Journal.Sharded.close w
      in
      (* Quarantined labels from a previous run are set aside, not re-run:
         their fault schedule is deterministic, so a retry would only
         quarantine them again. *)
      let quarantined_prior : (string, Octopocs.quarantine) Hashtbl.t = Hashtbl.create 7 in
      let qsetup =
        match qpath with
        | None -> Ok None
        | Some p when resume ->
            (* The quarantine journal gets the main WAL's torn-tail
               recovery one level up: a frame that is CRC-valid but not
               a decodable OQR1 record (a crash half-through an
               overwrite can produce one) ends the valid prefix and is
               truncated away on resume, like a torn frame. *)
            let w, records =
              Journal.open_resume
                ~validate:(fun payload -> Octopocs.decode_quarantine payload <> None)
                ~path:p ()
            in
            List.iter
              (fun payload ->
                match Octopocs.decode_quarantine payload with
                | Some q -> Hashtbl.replace quarantined_prior q.Octopocs.qlabel q
                | None -> ())
              records;
            Ok (Some w)
        | Some p when Sys.file_exists p ->
            Error
              (structured_error
                 "quarantine journal %s already exists; pass --resume to continue it \
                  or remove it first"
                 p)
        | Some p -> Ok (Some (Journal.create ~path:p ()))
      in
      match qsetup with
      | Error code ->
          close_jw ();
          Error code
      | Ok qw ->
          Ok
            {
              sj_writer = jw;
              sj_replayed = replayed;
              sj_quarantine = qw;
              sj_quarantined_prior = quarantined_prior;
            })

(* Live progress meter: one stderr line redrawn in place — settled count,
   recent throughput, ETA when the corpus size is known up front, and the
   quarantine count.  Active only when stderr is a TTY: piped runs and CI
   logs never see control characters.  The rate is measured against a
   sliding anchor (re-based every ~2 s) so it tracks the run's current
   phase rather than its lifetime average. *)
module Progress = struct
  type t = {
    total : int option;
    lock : Mutex.t;
    mutable settled : int;
    mutable quarantined : int;
    mutable anchor_t : float;
    mutable anchor_n : int;
    mutable last_draw : float;
    mutable active : bool;
  }

  let create ~enabled ~total () =
    {
      total;
      lock = Mutex.create ();
      settled = 0;
      quarantined = 0;
      anchor_t = Unix.gettimeofday ();
      anchor_n = 0;
      last_draw = 0.;
      active = enabled && Unix.isatty Unix.stderr;
    }

  (* Redraws are throttled to ~10/s: settle callbacks can burst far past
     what a terminal can usefully render. *)
  let draw p =
    let now = Unix.gettimeofday () in
    if now -. p.last_draw >= 0.1 then begin
      p.last_draw <- now;
      let dt = now -. p.anchor_t in
      let rate = if dt > 0.2 then float_of_int (p.settled - p.anchor_n) /. dt else 0. in
      if dt > 2.0 then begin
        p.anchor_t <- now;
        p.anchor_n <- p.settled
      end;
      let frac =
        match p.total with
        | Some total -> Printf.sprintf "%d/%d" p.settled total
        | None -> string_of_int p.settled
      in
      let eta =
        match p.total with
        | Some total when rate > 0. && total > p.settled ->
            Printf.sprintf " eta %.0fs" (float_of_int (total - p.settled) /. rate)
        | _ -> ""
      in
      Printf.eprintf "\r\027[K%s settled, %.1f pairs/s%s%s%!" frac rate eta
        (if p.quarantined > 0 then Printf.sprintf ", %d quarantined" p.quarantined else "")
    end

  let step p =
    if p.active then begin
      Mutex.lock p.lock;
      p.settled <- p.settled + 1;
      draw p;
      Mutex.unlock p.lock
    end

  let quar p =
    if p.active then begin
      Mutex.lock p.lock;
      p.quarantined <- p.quarantined + 1;
      draw p;
      Mutex.unlock p.lock
    end

  (* Clear the meter line so the summary below starts on a clean row. *)
  let finish p =
    if p.active then begin
      Mutex.lock p.lock;
      p.active <- false;
      Printf.eprintf "\r\027[K%!";
      Mutex.unlock p.lock
    end
end

(* Best-effort corpus size for the meter's ETA: exact for the registry
   and gen:N corpora, a directory-entry count for manifest corpora. *)
let corpus_total spec =
  if spec = "registry" then Some (List.length Registry.all)
  else
    match String.split_on_char ':' spec with
    | "gen" :: n :: _ -> int_of_string_opt n
    | _ ->
        if Sys.file_exists spec && Sys.is_directory spec then
          Some
            (Array.fold_left
               (fun acc f -> if Filename.check_suffix f ".pair" then acc + 1 else acc)
               0 (Sys.readdir spec))
        else None

(* Resolve --telemetry's path: explicit PATH as given; the bare flag
   defaults to a journal-adjacent file (inside the shard directory, or
   PATH.telemetry beside a single-file journal). *)
let telemetry_path ~telemetry ~journal_path ~shards =
  match telemetry with
  | None -> Ok None
  | Some p when p <> "" -> Ok (Some p)
  | Some _ -> (
      match journal_path with
      | Some dir when shards > 1 -> Ok (Some (Filename.concat dir "telemetry.jrnl"))
      | Some j -> Ok (Some (j ^ ".telemetry"))
      | None ->
          Error
            (structured_error
               "--telemetry without PATH requires --journal (the default telemetry \
                file lives beside it)"))

let run_corpus ~corpus ~jobs ~retries ~deadline ~chaos_seed ~chaos_sites ~journal_path
    ~resume ~shards ~quarantine_path ~window ~poison ~isolate ~limits ~mem_watermark
    ~metrics_on ~telemetry ~progress () =
  match Source.of_spec corpus with
  | Error msg -> structured_error "%s" msg
  | Ok src ->
      let m0 = Metrics.aggregate () in
      let t0 = Unix.gettimeofday () in
      let config_of label = config_for_label ~chaos_sites ~deadline ~chaos_seed ~poison label in
      match open_stream_journals ~journal_path ~resume ~shards ~quarantine_path with
      | Error code -> code
      | Ok sj ->
          (* Enable only after the journal setup succeeded: a refused
             clobber must not truncate an existing telemetry file. *)
          (match telemetry with Some path -> Telemetry.enable ~path () | None -> ());
          let prog = Progress.create ~enabled:progress ~total:(corpus_total corpus) () in
          let jw = sj.sj_writer in
          let qw = sj.sj_quarantine in
          let replayed = sj.sj_replayed in
          let quarantined_prior = sj.sj_quarantined_prior in
          (* Last journaled verdict per label wins, as in the registry
             path. *)
          let settled_prior : (string, string * Octopocs.report) Hashtbl.t =
            Hashtbl.create (List.length replayed)
          in
          List.iter (fun (l, k, r) -> Hashtbl.replace settled_prior l (k, r)) replayed;
          let tally = Tally.create () in
          (* The in-flight table carries (key, expected) from pull to
             settle and never exceeds the window. *)
          let lock = Mutex.create () in
          let inflight : (string, string * string option) Hashtbl.t =
            Hashtbl.create 31
          in
          let take_inflight label =
            Mutex.lock lock;
            let v = Hashtbl.find_opt inflight label in
            Hashtbl.remove inflight label;
            Mutex.unlock lock;
            match v with Some (key, expected) -> (key, expected) | None -> ("", None)
          in
          let on_settle j (r : Octopocs.report) =
            if settle_delay_s > 0. then Unix.sleepf settle_delay_s;
            let label = Octopocs.job_label j in
            let key, expected = take_inflight label in
            (match jw with
            | No_journal -> ()
            | Single w -> Journal.append w (Octopocs.encode_result ~label ~key r)
            | Dir w -> Journal.Sharded.append w ~key (Octopocs.encode_result ~label ~key r));
            Tally.add ?expected tally r;
            Progress.step prog
          in
          let on_quarantine (q : Octopocs.quarantine) =
            ignore (take_inflight q.Octopocs.qlabel);
            (match qw with
            | Some w -> Journal.append w (Octopocs.encode_quarantine q)
            | None -> ());
            Log.warn (fun m ->
                m "quarantined %s after %d attempt(s): %s: %s" q.Octopocs.qlabel
                  q.Octopocs.qattempts q.Octopocs.qreason q.Octopocs.qmessage);
            Progress.quar prog
          in
          (* The pull thunk: skip pairs already settled (same content key)
             or already quarantined, admit the rest.  Tail-recursive — a
             fully-cached resume walks the whole corpus without growing
             the stack or the heap. *)
          let rec next_job () =
            match Source.next src with
            | None -> None
            | Some p ->
                let config = config_of p.Source.plabel in
                let key =
                  Octopocs.content_key ~config ?ell:p.Source.pell ~s:p.Source.ps
                    ~t:p.Source.pt ~poc:p.Source.ppoc ()
                in
                if Hashtbl.mem quarantined_prior p.Source.plabel then begin
                  Tally.add_quarantined_prior tally;
                  next_job ()
                end
                else (
                  match Hashtbl.find_opt settled_prior p.Source.plabel with
                  | Some (k, r) when k = key ->
                      Tally.add_cached ?expected:p.Source.pexpected tally r;
                      next_job ()
                  | _ ->
                      Mutex.lock lock;
                      Hashtbl.replace inflight p.Source.plabel (key, p.Source.pexpected);
                      Mutex.unlock lock;
                      Some
                        (Octopocs.job ~config ?ell:p.Source.pell ~label:p.Source.plabel
                           ~s:p.Source.ps ~t:p.Source.pt ~poc:p.Source.ppoc ()))
          in
          let st =
            Octopocs.run_stream ~jobs ~retries ?window ~isolate ~limits
              ?mem_watermark_mb:mem_watermark ?pre_run:oom_pre_run ~on_settle
              ~on_quarantine next_job
          in
          Telemetry.disable ();
          Progress.finish prog;
          close_stream_journals sj;
          let elapsed = Unix.gettimeofday () -. t0 in
          say "corpus  : %s  pulled=%d settled=%d quarantined=%d cached=%d%s peak-in-flight=%d deferred=%d"
            (Source.id src) st.Octopocs.st_pulled st.Octopocs.st_settled
            st.Octopocs.st_quarantined tally.cached (Tally.quar_prior_note tally)
            st.Octopocs.st_peak_in_flight st.Octopocs.st_deferrals;
          Tally.say_summary tally ~quarantined:st.Octopocs.st_quarantined;
          say "%.3fs wall, %d worker %s" elapsed
            (Octo_util.Pool.effective_jobs jobs)
            (worker_kind isolate);
          if metrics_on then say_pool m0;
          tally.worst

let run_all jobs retries deadline chaos_seed journal_path resume fail_fast trace
    metrics_on provenance_on corpus shards quarantine_path window poison isolate
    rlimit_as rlimit_cpu mem_watermark chaos_sites telemetry progress log_level log_json =
  apply_logging log_level log_json;
  with_valid_deadline deadline @@ fun () ->
  let streaming =
    corpus <> "registry" || shards > 1 || quarantine_path <> None || window <> None
    || poison <> None
  in
  let limits = { Octo_util.Sandbox.as_mb = rlimit_as; cpu_s = rlimit_cpu } in
  if resume && journal_path = None then
    structured_error "--resume requires --journal PATH"
  else if retries < 0 then structured_error "--retries must be >= 0"
  else if shards < 1 then structured_error "--shards must be >= 1"
  else if shards > 1 && journal_path = None then
    structured_error "--shards requires --journal DIR"
  else if streaming && fail_fast then
    structured_error "--fail-fast is not supported in streaming corpus mode"
  else if isolate = Octopocs.Domains && (rlimit_as <> None || rlimit_cpu <> None) then
    structured_error "--rlimit-as/--rlimit-cpu require --isolate proc"
  else if isolate = Octopocs.Domains && mem_watermark <> None then
    structured_error "--mem-watermark requires --isolate proc"
  else if (not streaming) && mem_watermark <> None then
    structured_error "--mem-watermark is only meaningful in streaming corpus mode"
  else if (not streaming) && telemetry <> None then
    structured_error "--telemetry is only supported in streaming corpus mode"
  else if (not streaming) && progress then
    structured_error "--progress is only supported in streaming corpus mode"
  else if streaming then (
    match telemetry_path ~telemetry ~journal_path ~shards with
    | Error code -> code
    | Ok tpath ->
        with_observability ~provenance:provenance_on ~trace ~metrics:metrics_on (fun () ->
            run_corpus ~corpus ~jobs ~retries ~deadline ~chaos_seed ~chaos_sites
              ~journal_path ~resume ~shards ~quarantine_path ~window ~poison ~isolate
              ~limits ~mem_watermark ~metrics_on ~telemetry:tpath ~progress ()))
  else begin
    with_observability ~provenance:provenance_on ~trace ~metrics:metrics_on @@ fun () ->
    (* Baseline for the batch's pool-level counters: metrics cells live for
       the whole process, so the batch view is a diff, not an absolute. *)
    let m0 = Metrics.aggregate () in
    let t0 = Unix.gettimeofday () in
    let config_of idx = config_for ~chaos_sites ~deadline ~chaos_seed idx in
    let key_of (c : Registry.case) =
      Octopocs.content_key ~config:(config_of c.idx) ~s:c.s ~t:c.t ~poc:c.poc ()
    in
    (* Journal setup.  A fresh run refuses to clobber an existing journal:
       the file is durable evidence, and losing it silently defeats the
       point of writing it. *)
    let journal_setup =
      match journal_path with
      | None -> Ok (None, [])
      | Some path ->
          let inject =
            match chaos_seed with
            | None -> Faultinject.none
            | Some seed -> Faultinject.create ~seed:(seed lxor 0x6A09E667) ()
          in
          if resume then begin
            let w, records = Journal.open_resume ~inject ~path () in
            (Ok (Some w, List.filter_map Octopocs.decode_result records))
          end
          else if Sys.file_exists path then
            Error
              (structured_error
                 "journal %s already exists; pass --resume to continue it or remove it first"
                 path)
          else Ok (Some (Journal.create ~inject ~path ()), [])
    in
    match journal_setup with
    | Error code -> code
    | Ok (writer, replayed) ->
        (* Last journaled record per label wins (a key change mid-history
           re-runs the pair and re-journals it). *)
        let settled : (string, string * Octopocs.report) Hashtbl.t = Hashtbl.create 31 in
        List.iter (fun (label, key, r) -> Hashtbl.replace settled label (key, r)) replayed;
        (* Split the registry: cache hits (journaled verdict under the same
           content key) vs pairs that must (re-)run. *)
        let cached, to_run =
          List.partition_map
            (fun (c : Registry.case) ->
              match Hashtbl.find_opt settled (string_of_int c.idx) with
              | Some (key, r) when key = key_of c -> Left (c.idx, r)
              | _ -> Right c)
            Registry.all
        in
        let cached_tbl = Hashtbl.create 31 in
        List.iter (fun (idx, r) -> Hashtbl.replace cached_tbl idx r) cached;
        let on_settle label (r : Octopocs.report) =
          if settle_delay_s > 0. then Unix.sleepf settle_delay_s;
          match writer with
          | None -> ()
          | Some w ->
              let key =
                match int_of_string_opt label with
                | Some idx -> (
                    match Registry.find_opt idx with Some c -> key_of c | None -> "")
                | None -> ""
              in
              Journal.append w (Octopocs.encode_result ~label ~key r)
        in
        let batch =
          List.map
            (fun (c : Registry.case) ->
              let config = config_of c.idx in
              Octopocs.job ~config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ())
            to_run
        in
        let fresh =
          Octopocs.run_all ~jobs ~retries ~fail_fast ~isolate
            ~limits ?pre_run:oom_pre_run ~on_settle batch
        in
        (match writer with Some w -> Journal.close w | None -> ());
        let fresh_tbl = Hashtbl.create 31 in
        List.iter (fun (label, r) -> Hashtbl.replace fresh_tbl label r) fresh;
        let results =
          List.map
            (fun (c : Registry.case) ->
              match Hashtbl.find_opt cached_tbl c.idx with
              | Some r -> (c, Cached r)
              | None -> (c, Fresh (Hashtbl.find fresh_tbl (string_of_int c.idx))))
            Registry.all
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        let mismatches = ref 0 in
        List.iter
          (fun ((c : Registry.case), outcome) ->
            let r = report_of outcome in
            let got = Octopocs.verdict_class r.verdict in
            let want = Registry.expected_to_string c.expected in
            if not (matches c r) then incr mismatches;
            say "Pair %-3d %-22s -> %-40s %s%s%s" c.idx
              (Printf.sprintf "%s/%s" c.s.pname c.t.pname)
              (Fmt.str "%a" (Octopocs.pp_verdict_prov r.provenance) r.verdict)
              (if got = want then "MATCH" else Printf.sprintf "MISMATCH (want %s)" want)
              (match outcome with Cached _ -> "  [cached]" | Fresh _ -> "")
              (if r.degradations = [] then ""
               else Printf.sprintf "  [degraded: %s]" (String.concat " -> " r.degradations));
            (* Per-pair phase breakdown, from the same snapshot that was
               journaled with the verdict (cached pairs show the replayed
               one). *)
            match r.metrics with
            | Some m when metrics_on -> say "         %s" (Fmt.str "%a" Metrics.pp_phases m)
            | _ -> ())
          results;
        (* Per-verdict summary and the worst-verdict exit code. *)
        let count p = List.length (List.filter (fun (_, o) -> p (report_of o)) results) in
        let skipped = count Octopocs.is_skipped_report in
        let crashed = count crashed_verdict in
        let triggered =
          count (fun r -> match r.verdict with Octopocs.Triggered _ -> true | _ -> false)
        in
        let not_trig =
          count (fun r -> match r.verdict with Octopocs.Not_triggerable _ -> true | _ -> false)
        in
        let failures =
          count (fun r ->
              match r.verdict with
              | Octopocs.Failure _ -> not (crashed_verdict r) && not (Octopocs.is_skipped_report r)
              | _ -> false)
        in
        let ncached = List.length cached in
        say "summary : %d triggered / %d not-triggerable / %d failure / %d crashed (%d cached, %d skipped)"
          triggered not_trig failures crashed ncached skipped;
        say "%d/%d pairs match the paper's verdicts (%.3fs wall, %d worker %s)"
          (List.length results - !mismatches)
          (List.length results) elapsed
          (Octo_util.Pool.effective_jobs jobs)
          (worker_kind isolate);
        (* Batch metrics: totals are the sum of the per-pair snapshots —
           i.e. exactly what the journal recorded — so the summary and a
           later `journal` dump agree by construction.  Pool retry/stall
           counters live outside any pair's scope and come from the
           process-wide aggregate instead. *)
        if metrics_on then begin
          let snaps = List.filter_map (fun (_, o) -> (report_of o).metrics) results in
          let tot = Metrics.sum snaps in
          say "metrics : %s  (summed over %d pair snapshot(s))"
            (Fmt.str "%a" Metrics.pp_counters tot)
            (List.length snaps);
          say "phases  : %s" (Fmt.str "%a" Metrics.pp_phases tot);
          say_pool m0
        end;
        List.fold_left (fun acc (_, o) -> max acc (verdict_exit (report_of o))) 0 results
  end

(* A fault-injection rate: a float in [0,1] (NaN fails the range check). *)
let rate_conv =
  let parse s =
    match float_of_string_opt s with
    | Some r when r >= 0.0 && r <= 1.0 -> Ok r
    | _ -> Error (`Msg "RATE must be a float in [0,1]")
  in
  Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%g" r)

let verify_all_cmd =
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Verify pairs in parallel on $(docv) worker domains (default 1: serial).")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a crashed or stalled pair $(docv) extra times before recording \
                   its worker-crash Failure (default 0).")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Write-ahead journal: append each pair's verdict to $(docv) as it \
                   settles (CRC-framed, fsynced), so a killed batch loses nothing.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Replay the journal first: pairs already settled under an identical \
                   content key are reused, only unfinished ones re-run.  A torn \
                   trailing record (crash mid-append) is dropped and repaired.")
  in
  let fail_fast =
    Arg.(value & flag
         & info [ "fail-fast" ]
             ~doc:"Stop scheduling new pairs after the first Failure verdict; \
                   unstarted pairs are reported as skipped (and not journaled, so \
                   --resume re-runs them).")
  in
  let corpus =
    Arg.(value & opt string "registry"
         & info [ "corpus" ] ~docv:"SPEC"
             ~doc:"Pair source: $(b,registry) (the 15 Table II pairs, default), \
                   $(b,gen:COUNT[:SEED]) (the deterministic generated corpus; seed \
                   defaults to 42), or a corpus directory of pair manifests (see the \
                   $(b,corpus) subcommand).  Non-registry sources stream: pairs are \
                   pulled on demand and never materialised as a list.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Split the journal into $(docv) shard files under --journal DIR \
                   (content-keyed routing).  Each shard recovers its torn tail \
                   independently on --resume.  Default 1: a single journal file.")
  in
  let quarantine =
    Arg.(value & opt (some string) None
         & info [ "quarantine" ] ~docv:"PATH"
             ~doc:"Quarantine journal: pairs that crash or stall past --retries are \
                   recorded here (reason, message, backtrace, attempts) and set \
                   aside instead of failing the batch.  Defaults to \
                   $(i,DIR)/quarantine.jrnl when the journal is sharded.")
  in
  let window =
    Arg.(value & opt (some int) None
         & info [ "window" ] ~docv:"N"
             ~doc:"Bound on in-flight pairs in streaming mode (admission control for \
                   the generator).  Default: max(4, 2*jobs).")
  in
  let poison =
    Arg.(value & opt (some rate_conv) None
         & info [ "poison" ] ~docv:"RATE"
             ~doc:"Arm the worker-crash fault site at $(docv) (0.0-1.0) per pair, \
                   seeded per label — the poison-pair quarantine drill.")
  in
  let isolate =
    let mode_conv =
      Arg.enum [ ("domain", Octopocs.Domains); ("proc", Octopocs.Processes) ]
    in
    Arg.(value & opt mode_conv Octopocs.Domains
         & info [ "isolate" ] ~docv:"MODE"
             ~doc:"Job isolation: $(b,domain) (default; worker domains in this \
                   process) or $(b,proc) (one forked, rlimit-bounded child per pair \
                   — a segfaulting or OOMing pair costs itself, never the batch).  \
                   Verdicts and journal dumps are identical across modes.")
  in
  let rlimit_as =
    Arg.(value & opt (some int) None
         & info [ "rlimit-as" ] ~docv:"MB"
             ~doc:"With --isolate proc: bound each child's address space at $(docv) \
                   MiB (RLIMIT_AS).  A pair allocating past it dies with a \
                   classified OOM failure and feeds the retry/quarantine ladder.")
  in
  let rlimit_cpu =
    Arg.(value & opt (some int) None
         & info [ "rlimit-cpu" ] ~docv:"SECS"
             ~doc:"With --isolate proc: hard CPU-time backstop per child (RLIMIT_CPU \
                   soft limit $(docv), hard $(docv)+1) behind the cooperative \
                   --deadline.")
  in
  let mem_watermark =
    Arg.(value & opt (some int) None
         & info [ "mem-watermark" ] ~docv:"MB"
             ~doc:"With --isolate proc (streaming): memory-pressure admission \
                   control.  Past $(docv) MiB (parent RSS plus the worst observed \
                   child RSS) the in-flight window halves and admissions defer, \
                   reported as deferred=N in the corpus summary.")
  in
  let chaos_sites =
    let site_conv =
      let parse s =
        match String.index_opt s '=' with
        | None -> Error (`Msg "expected SITE=RATE")
        | Some i -> (
            let name = String.sub s 0 i in
            let rate = String.sub s (i + 1) (String.length s - i - 1) in
            match Faultinject.site_of_name name with
            | None ->
                Error
                  (`Msg
                     (Printf.sprintf "unknown fault site %S (one of: %s)" name
                        (String.concat ", "
                           (List.map Faultinject.site_name Faultinject.all_sites))))
            | Some site -> Result.map (fun r -> (site, r)) (Arg.conv_parser rate_conv rate))
      in
      let print ppf (site, r) =
        Format.fprintf ppf "%s=%g" (Faultinject.site_name site) r
      in
      Arg.conv (parse, print)
    in
    Arg.(value & opt_all site_conv []
         & info [ "chaos-site" ] ~docv:"SITE=RATE"
             ~doc:"Arm one fault-injection site at an explicit per-check rate \
                   (repeatable; e.g. --chaos-site child-segv=0.2).  Listed sites \
                   fire at their rates, every other site stays silent; the schedule \
                   is seeded by --chaos-seed (default seed otherwise).  Site names: \
                   vm-syscall, solver-budget, worker-crash, deadline-expiry, \
                   journal-write, worker-stall, child-segv, child-oom-kill.")
  in
  Cmd.v
    (Cmd.info "verify-all" ~doc:"Verify all 15 pairs, or stream a corpus"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "The exit code is the worst verdict across the batch, matching verify's \
               single-pair convention: 0 all pairs Triggered; 1 some pair \
               Not-triggerable; 2 some pair Failure; 3 some worker crashed or \
               stalled.  (The registry's pair 15 is an expected Failure, so a \
               faithful full run exits 2.)";
         ])
    Term.(const run_all $ jobs $ retries $ deadline_arg $ chaos_seed_arg $ journal $ resume
          $ fail_fast $ trace_arg $ metrics_arg $ provenance_arg
          $ corpus $ shards $ quarantine $ window $ poison $ isolate
          $ rlimit_as $ rlimit_cpu $ mem_watermark $ chaos_sites $ telemetry_arg
          $ progress_arg $ log_level_arg $ log_json_arg)

(* ------------------------------------------------------------------ *)
(* scan: the clone-detection front-end.  Instead of verifying annotated
   (S, T) pairs, discover them: index every target program of a corpus
   (plus optional seeded decoys), retrieve candidates for each probe's
   annotated vulnerable function, confirm (S, T, ℓ, ep) through the
   validity filter, print the precision/recall table against the
   corpus's own ground truth, and pipe the confirmed candidates through
   the streaming verifier with the same journal/quarantine/isolation
   machinery as verify-all --corpus. *)

let run_scan corpus strict decoys decoy_seed shingle_k winnow_w tau_retrieve tau_confirm
    top no_verify min_recall jobs retries deadline journal_path resume shards
    quarantine_path window isolate rlimit_as rlimit_cpu mem_watermark telemetry progress
    log_level log_json =
  apply_logging log_level log_json;
  with_valid_deadline deadline @@ fun () ->
  let limits = { Octo_util.Sandbox.as_mb = rlimit_as; cpu_s = rlimit_cpu } in
  if resume && journal_path = None then structured_error "--resume requires --journal PATH"
  else if retries < 0 then structured_error "--retries must be >= 0"
  else if shards < 1 then structured_error "--shards must be >= 1"
  else if shards > 1 && journal_path = None then
    structured_error "--shards requires --journal DIR"
  else if isolate = Octopocs.Domains && (rlimit_as <> None || rlimit_cpu <> None) then
    structured_error "--rlimit-as/--rlimit-cpu require --isolate proc"
  else if isolate = Octopocs.Domains && mem_watermark <> None then
    structured_error "--mem-watermark requires --isolate proc"
  else if decoys < 0 then structured_error "--decoys must be >= 0"
  else if shingle_k < 1 then structured_error "--shingle-k must be >= 1"
  else if winnow_w < 1 then structured_error "--winnow-w must be >= 1"
  else if
    not
      (tau_retrieve > 0.0 && tau_retrieve <= 1.0 && tau_confirm > 0.0 && tau_confirm <= 1.0)
  then structured_error "--tau-retrieve/--tau-confirm must be in (0, 1]"
  else if top < 0 then structured_error "--top must be >= 0"
  else if no_verify && (telemetry <> None || progress) then
    structured_error
      "--telemetry/--progress instrument the verification stage (drop --no-verify)"
  else
    match Source.of_spec ~strict corpus with
    | Error msg -> structured_error "%s" msg
    | Ok src -> (
        match Scan.of_source src with
        | exception Source.Malformed_manifest path ->
            structured_error "malformed pair manifest: %s" path
        | probes, corpus_targets -> (
            let t0 = Unix.gettimeofday () in
            let params =
              { Detect.shingle_k; winnow_w; tau_retrieve; tau_confirm }
            in
            let targets = corpus_targets @ Scan.decoy_targets ~seed:decoy_seed ~count:decoys in
            let result = Scan.run ~params ~top ~probes ~targets ~n_decoys:decoys () in
            print_string (Scan.render ~corpus_id:(Source.id src) result);
            let detect_elapsed = Unix.gettimeofday () -. t0 in
            let recall_bad =
              match min_recall with Some m -> Scan.recall result < m | None -> false
            in
            if recall_bad then
              Format.eprintf "octopocs: scan recall %.3f below --min-recall %.3f@."
                (Scan.recall result)
                (Option.value min_recall ~default:0.0);
            if no_verify then begin
              say "scan    : detection only (--no-verify), %.3fs wall" detect_elapsed;
              if recall_bad then 1 else 0
            end
            else begin
              (* Verification stage: one job per distinct confirmed (S, T)
                 pair.  A diagonal candidate (S and T from the same corpus
                 pair) runs under the pair's own label with ℓ re-derived by
                 the pipeline's clone stage — its content key is therefore
                 identical to a verify-all --corpus run of the same corpus,
                 so journal dumps of the two agree on the intersection.  A
                 cross candidate runs under "S~T" with the detector's ℓ. *)
              let probe_tbl : (string, Scan.probe) Hashtbl.t = Hashtbl.create 31 in
              List.iter (fun (pr : Scan.probe) -> Hashtbl.replace probe_tbl pr.Scan.pr_label pr) probes;
              let target_tbl : (string, Scan.target) Hashtbl.t = Hashtbl.create 31 in
              List.iter
                (fun (tg : Scan.target) -> Hashtbl.replace target_tbl tg.Scan.tg_label tg)
                targets;
              let config_of label =
                config_for_label ~deadline ~chaos_seed:None ~poison:None label
              in
              let seen : (string * string, unit) Hashtbl.t = Hashtbl.create 31 in
              let jobs_list =
                List.filter_map
                  (fun (c : Detect.candidate) ->
                    let pk = (c.Detect.c_s_label, c.Detect.c_t_label) in
                    if Hashtbl.mem seen pk then None
                    else begin
                      Hashtbl.replace seen pk ();
                      let pr = Hashtbl.find probe_tbl c.Detect.c_s_label in
                      let tg = Hashtbl.find target_tbl c.Detect.c_t_label in
                      let diagonal = c.Detect.c_s_label = c.Detect.c_t_label in
                      let label =
                        if diagonal then c.Detect.c_s_label
                        else c.Detect.c_s_label ^ "~" ^ c.Detect.c_t_label
                      in
                      let ell = if diagonal then None else Some c.Detect.c_ell in
                      let expected = if diagonal then pr.Scan.pr_expected else None in
                      let config = config_of label in
                      let key =
                        Octopocs.content_key ~config ?ell ~s:pr.Scan.pr_s ~t:tg.Scan.tg_prog
                          ~poc:pr.Scan.pr_poc ()
                      in
                      Some
                        ( label,
                          key,
                          expected,
                          Octopocs.job ~config ?ell ~label ~s:pr.Scan.pr_s
                            ~t:tg.Scan.tg_prog ~poc:pr.Scan.pr_poc () )
                    end)
                  result.Scan.candidates
              in
              match telemetry_path ~telemetry ~journal_path ~shards with
              | Error code -> code
              | Ok tpath -> (
              match open_stream_journals ~journal_path ~resume ~shards ~quarantine_path with
              | Error code -> code
              | Ok sj ->
                  (match tpath with Some path -> Telemetry.enable ~path () | None -> ());
                  let settled_prior : (string, string * Octopocs.report) Hashtbl.t =
                    Hashtbl.create (List.length sj.sj_replayed)
                  in
                  List.iter
                    (fun (l, k, r) -> Hashtbl.replace settled_prior l (k, r))
                    sj.sj_replayed;
                  let meta : (string, string * string option) Hashtbl.t =
                    Hashtbl.create 31
                  in
                  List.iter
                    (fun (label, key, expected, _) -> Hashtbl.replace meta label (key, expected))
                    jobs_list;
                  let tally = Tally.create () in
                  let to_run =
                    List.filter_map
                      (fun (label, key, expected, job) ->
                        if Hashtbl.mem sj.sj_quarantined_prior label then begin
                          Tally.add_quarantined_prior tally;
                          None
                        end
                        else
                          match Hashtbl.find_opt settled_prior label with
                          | Some (k, r) when k = key ->
                              Tally.add_cached ?expected tally r;
                              None
                          | _ -> Some job)
                      jobs_list
                  in
                  let prog =
                    Progress.create ~enabled:progress ~total:(Some (List.length to_run)) ()
                  in
                  let on_settle j (r : Octopocs.report) =
                    if settle_delay_s > 0. then Unix.sleepf settle_delay_s;
                    let label = Octopocs.job_label j in
                    let key, expected =
                      match Hashtbl.find_opt meta label with
                      | Some (k, e) -> (k, e)
                      | None -> ("", None)
                    in
                    (match sj.sj_writer with
                    | No_journal -> ()
                    | Single w -> Journal.append w (Octopocs.encode_result ~label ~key r)
                    | Dir w ->
                        Journal.Sharded.append w ~key (Octopocs.encode_result ~label ~key r));
                    Tally.add ?expected tally r;
                    Progress.step prog
                  in
                  let on_quarantine (q : Octopocs.quarantine) =
                    (match sj.sj_quarantine with
                    | Some w -> Journal.append w (Octopocs.encode_quarantine q)
                    | None -> ());
                    Log.warn (fun m ->
                        m "quarantined %s after %d attempt(s): %s: %s" q.Octopocs.qlabel
                          q.Octopocs.qattempts q.Octopocs.qreason q.Octopocs.qmessage);
                    Progress.quar prog
                  in
                  let st =
                    Octopocs.run_stream ~jobs ~retries ?window ~isolate ~limits
                      ?mem_watermark_mb:mem_watermark ?pre_run:oom_pre_run ~on_settle
                      ~on_quarantine
                      (Octopocs.stream_of_list to_run)
                  in
                  Telemetry.disable ();
                  Progress.finish prog;
                  close_stream_journals sj;
                  let elapsed = Unix.gettimeofday () -. t0 in
                  say "verify  : candidates=%d settled=%d quarantined=%d cached=%d%s"
                    (List.length jobs_list) st.Octopocs.st_settled st.Octopocs.st_quarantined
                    tally.cached (Tally.quar_prior_note tally);
                  Tally.say_summary tally ~quarantined:st.Octopocs.st_quarantined;
                  say "%.3fs wall (%.3fs detection), %d worker %s" elapsed detect_elapsed
                    (Octo_util.Pool.effective_jobs jobs)
                    (worker_kind isolate);
                  max tally.worst (if recall_bad then 1 else 0))
            end))

let scan_cmd =
  let corpus =
    Arg.(value & opt string "registry"
         & info [ "corpus" ] ~docv:"SPEC"
             ~doc:"Corpus to scan: $(b,registry), $(b,gen:COUNT[:SEED]), or a corpus \
                   directory of pair manifests.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Treat a malformed pair manifest in a corpus directory as a \
                   structured error (exit 2) instead of a skip-with-warning.")
  in
  let decoys =
    Arg.(value & opt int 0
         & info [ "decoys" ] ~docv:"N"
             ~doc:"Seed $(docv) decoy programs into the target set: patched \
                   (fix applied), mutated (one opcode flipped) and unrelated, \
                   round-robin.  The first two are retrieved by the index and \
                   rejected by the validity filter; unrelated decoys are never \
                   retrieved.")
  in
  let decoy_seed =
    Arg.(value & opt int 7
         & info [ "decoy-seed" ] ~docv:"SEED" ~doc:"Seed for the decoy generator.")
  in
  let shingle_k =
    Arg.(value & opt int Detect.default_params.Detect.shingle_k
         & info [ "shingle-k" ] ~docv:"K"
             ~doc:"Shingle length: $(docv) consecutive normalized instruction tokens \
                   per k-gram.")
  in
  let winnow_w =
    Arg.(value & opt int Detect.default_params.Detect.winnow_w
         & info [ "winnow-w" ] ~docv:"W"
             ~doc:"Winnowing window: keep the minimum k-gram hash of every $(docv)-gram \
                   window.")
  in
  let tau_retrieve =
    Arg.(value & opt float Detect.default_params.Detect.tau_retrieve
         & info [ "tau-retrieve" ] ~docv:"F"
             ~doc:"Retrieval threshold: a target function is a hit when it shares at \
                   least fraction $(docv) of the probe's shingles.")
  in
  let tau_confirm =
    Arg.(value & opt float Detect.default_params.Detect.tau_confirm
         & info [ "tau-confirm" ] ~docv:"F"
             ~doc:"Confirmation threshold for near-clones: a hit that is not an exact \
                   normalized clone of the probe needs containment >= $(docv).")
  in
  let top =
    Arg.(value & opt int 0
         & info [ "top" ] ~docv:"N"
             ~doc:"Keep at most $(docv) confirmed candidates per probe (best \
                   containment first; 0 = unlimited).  Dropped candidates are \
                   counted in the report, never silent.")
  in
  let no_verify =
    Arg.(value & flag
         & info [ "no-verify" ]
             ~doc:"Stop after detection: print the candidate table and \
                   precision/recall stats without running the verifier.")
  in
  let min_recall =
    Arg.(value & opt (some float) None
         & info [ "min-recall" ] ~docv:"F"
             ~doc:"Exit 1 when detection recall against the corpus ground truth falls \
                   below $(docv) — the CI regression gate.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Verify confirmed candidates on $(docv) workers (default 1: serial).")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a crashed candidate $(docv) extra times before quarantining it.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Write-ahead journal for the verification stage (file, or shard \
                   directory with --shards).  Diagonal candidates journal under the \
                   corpus pair's own label and content key, so dumps intersect \
                   cleanly with verify-all --corpus journals.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Replay the journal first; candidates already settled under an \
                   identical content key are reused.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Split the journal into $(docv) shard files under --journal DIR.")
  in
  let quarantine =
    Arg.(value & opt (some string) None
         & info [ "quarantine" ] ~docv:"PATH"
             ~doc:"Quarantine journal for candidates that crash past --retries.")
  in
  let window =
    Arg.(value & opt (some int) None
         & info [ "window" ] ~docv:"N"
             ~doc:"Bound on in-flight candidates (default: max(4, 2*jobs)).")
  in
  let isolate =
    let mode_conv =
      Arg.enum [ ("domain", Octopocs.Domains); ("proc", Octopocs.Processes) ]
    in
    Arg.(value & opt mode_conv Octopocs.Domains
         & info [ "isolate" ] ~docv:"MODE"
             ~doc:"Candidate isolation: $(b,domain) (default) or $(b,proc) (one \
                   forked, rlimit-bounded child per candidate).")
  in
  let rlimit_as =
    Arg.(value & opt (some int) None
         & info [ "rlimit-as" ] ~docv:"MB"
             ~doc:"With --isolate proc: bound each child's address space (MiB).")
  in
  let rlimit_cpu =
    Arg.(value & opt (some int) None
         & info [ "rlimit-cpu" ] ~docv:"SECS"
             ~doc:"With --isolate proc: hard CPU-time backstop per child.")
  in
  let mem_watermark =
    Arg.(value & opt (some int) None
         & info [ "mem-watermark" ] ~docv:"MB"
             ~doc:"With --isolate proc: memory-pressure admission control watermark.")
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:"Discover (S, T, ℓ, ep) candidates across a corpus by clone detection, \
             report precision/recall vs the annotated ground truth, and verify the \
             confirmed candidates"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 on success (worst candidate verdict Triggered, or --no-verify with \
               recall above --min-recall); 1 when some candidate is Not-triggerable \
               or recall falls below --min-recall; 2 on a Failure verdict or a \
               structured error; 3 when a worker crashed.";
         ])
    Term.(const run_scan $ corpus $ strict $ decoys $ decoy_seed $ shingle_k $ winnow_w
          $ tau_retrieve $ tau_confirm $ top $ no_verify $ min_recall $ jobs $ retries
          $ deadline_arg $ journal $ resume $ shards $ quarantine $ window $ isolate
          $ rlimit_as $ rlimit_cpu $ mem_watermark $ telemetry_arg $ progress_arg
          $ log_level_arg $ log_json_arg)

(* ------------------------------------------------------------------ *)
(* explain: render the causal evidence behind one verdict.  The live form
   re-verifies the pair with provenance collection enabled (the pipeline
   is deterministic, so this IS the original run's evidence); the
   --journal form renders a previously journaled record instead, which
   carries provenance only if the batch ran with --provenance.  Exit 0
   when an explanation was printed, independent of the verdict — the
   subcommand's job is explaining, not re-judging. *)

let explain_live ~dynamic ~deadline (c : Registry.case) =
  with_observability ~provenance:true ~trace:None ~metrics:false @@ fun () ->
  let config = config_for ~dynamic ~deadline ~chaos_seed:None c.idx in
  let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
  print_string (Octopocs.explain_report ~label:(Printf.sprintf "pair %d" c.idx) r);
  0

let explain_journal path idx =
  if not (Sys.file_exists path) then structured_error "no such journal: %s" path
  else begin
    let r = Journal.replay path in
    (* Last record per label wins, as in --resume. *)
    let found = ref None in
    List.iter
      (fun payload ->
        match Octopocs.decode_result payload with
        | Some (label, _, rep) when label = string_of_int idx -> found := Some rep
        | _ -> ())
      r.records;
    match !found with
    | Some rep ->
        print_string (Octopocs.explain_report ~label:(Printf.sprintf "pair %d" idx) rep);
        0
    | None -> structured_error "journal %s has no record for pair %d" path idx
  end

let explain_cmd =
  let idx = Arg.(required & pos 0 (some int) None & info [] ~docv:"PAIR") in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Render the journaled record of $(i,PAIR) from $(docv) instead of \
                   re-verifying (the record carries provenance only when the batch \
                   ran with --provenance).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain a pair's verdict: the causal evidence (taint bunches, forced \
             branches, pin conflicts with minimized constraint cores, crash site) \
             rendered as a deterministic, diffable narrative")
    Term.(const (fun dynamic deadline journal idx ->
              with_valid_deadline deadline @@ fun () ->
              match journal with
              | Some path -> explain_journal path idx
              | None -> with_case idx (explain_live ~dynamic ~deadline))
          $ dynamic_arg $ deadline_arg $ journal $ idx)

(* ------------------------------------------------------------------ *)

let inspect (c : Registry.case) =
  say "S = %s (%d instructions), T = %s (%d instructions)" c.s.pname
    (Octo_vm.Asm.size_of_code c.s) c.t.pname (Octo_vm.Asm.size_of_code c.t);
  let pairs = Octo_clone.Clone.shared_functions c.s c.t in
  say "shared functions (ℓ): %s"
    (String.concat ", "
       (List.map (fun (p : Octo_clone.Clone.clone_pair) -> p.t_func) pairs));
  say "PoC (%d bytes):@.%s" (String.length c.poc) (B.hexdump c.poc);
  0

let inspect_cmd =
  let idx = Arg.(required & pos 0 (some int) None & info [] ~docv:"IDX") in
  Cmd.v (Cmd.info "inspect" ~doc:"Show a pair's programs and PoC")
    Term.(const (fun idx -> with_case idx inspect) $ idx)

let fuzz (c : Registry.case) =
  let seeds = [ c.poc ] in
  let r =
    Octo_fuzz.Aflfast.run
      ~config:{ Octo_fuzz.Aflfast.default_config with max_execs = 200_000 }
      c.t ~seeds ~crash_in:(Octo_clone.Clone.ell_names (Octo_clone.Clone.shared_functions c.s c.t))
  in
  (match r.crash_input with
  | Some input ->
      say "crash found after %d execs (%.2fs): %d bytes" r.execs r.elapsed_s
        (String.length input)
  | None -> say "no crash in %d execs (%.2fs)" r.execs r.elapsed_s);
  0

let fuzz_cmd =
  let idx = Arg.(required & pos 0 (some int) None & info [] ~docv:"IDX") in
  Cmd.v (Cmd.info "fuzz" ~doc:"Run the AFLFast baseline on a pair's T")
    Term.(const (fun idx -> with_case idx fuzz) $ idx)

(* ------------------------------------------------------------------ *)
(* journal: dump a verification journal in a run-independent form (no
   timings), one sorted line per pair — two journals of equivalent runs
   diff clean, which is exactly what the kill-and-resume CI check does. *)

(* Decode, dedupe (last record per label wins) and print verdict records;
   shared by the single-file and sharded-directory dump forms.  Returns
   (pairs printed, undecodable records). *)
let dump_verdict_records records =
  let tbl : (string, string * Octopocs.report) Hashtbl.t = Hashtbl.create 31 in
  let undecodable = ref 0 in
  List.iter
    (fun payload ->
      match Octopocs.decode_result payload with
      | Some (label, key, rep) -> Hashtbl.replace tbl label (key, rep)
      | None -> incr undecodable)
    records;
    (* [sort_dump] orders by label then content key: the key tiebreak is
       what keeps a merged sharded dump deterministic regardless of the
       settle order that interleaved the shards. *)
    let entries =
      Octopocs.sort_dump (Hashtbl.fold (fun l (k, rep) acc -> (l, k, rep) :: acc) tbl [])
    in
    List.iter
      (fun (label, key, (rep : Octopocs.report)) ->
        let detail =
          match rep.verdict with
          | Octopocs.Triggered { poc'; _ } ->
              Printf.sprintf " poc'=%s" (Digest.to_hex (Digest.string poc'))
          | _ -> ""
        in
        (* Only deterministic counters appear in the dump (never latencies):
           the dump's contract is that two equivalent runs diff clean. *)
        let metrics_detail =
          match rep.metrics with
          | None -> ""
          | Some m ->
              Printf.sprintf " metrics[vm-steps=%d solver-nodes=%d constraint-adds=%d]"
                (Metrics.counter_value m Metrics.Vm_steps)
                (Metrics.counter_value m Metrics.Solver_nodes)
                (Metrics.counter_value m Metrics.Constraint_adds)
        in
        (* Provenance stays a one-line summary here (full rendering is
           explain's job): deterministic event/core counts keep the
           kill/resume dump diffs clean. *)
        let prov_detail =
          match rep.provenance with
          | None -> ""
          | Some p ->
              Printf.sprintf " prov[events=%d core=%d]"
                (Octopocs.Provenance.event_count p)
                (Octopocs.Provenance.conflict_core_size p)
        in
        say "pair %-4s key=%s %s%s%s%s%s" label key
          (Fmt.str "%a" Octopocs.pp_verdict rep.verdict)
          detail
          (if rep.degradations = [] then ""
           else Printf.sprintf " [degraded: %s]" (String.concat " -> " rep.degradations))
          metrics_detail prov_detail)
      entries;
    (List.length entries, !undecodable)

(* Sharded-directory dump: merge every shard's valid prefix, then the
   quarantine journal (one line per set-aside pair, no backtrace — the
   dump must diff clean across equivalent runs). *)
let journal_dump_dir dir =
  match Journal.Sharded.replay_merged dir with
  | exception Failure msg -> structured_error "%s" msg
  | m ->
      let npairs, undecodable = dump_verdict_records m.Journal.Sharded.mrecords in
      let qpath = Filename.concat dir "quarantine.jrnl" in
      let quars =
        if not (Sys.file_exists qpath) then []
        else begin
          let tbl : (string, Octopocs.quarantine) Hashtbl.t = Hashtbl.create 7 in
          List.iter
            (fun payload ->
              match Octopocs.decode_quarantine payload with
              | Some q -> Hashtbl.replace tbl q.Octopocs.qlabel q
              | None -> ())
            (Journal.replay qpath).Journal.records;
          Hashtbl.fold (fun _ q acc -> q :: acc) tbl []
          |> List.sort (fun (a : Octopocs.quarantine) b ->
                 compare a.Octopocs.qlabel b.Octopocs.qlabel)
        end
      in
      List.iter
        (fun (q : Octopocs.quarantine) ->
          say "quar %-4s key=%s %s after %d attempt(s): %s" q.Octopocs.qlabel
            q.Octopocs.qkey q.Octopocs.qreason q.Octopocs.qattempts q.Octopocs.qmessage)
        quars;
      say "%d pair(s), %d quarantined, %d shard(s)%s%s" npairs (List.length quars)
        m.Journal.Sharded.mshards
        (if m.Journal.Sharded.mtorn > 0 then
           Printf.sprintf ", %d torn shard tail(s) dropped" m.Journal.Sharded.mtorn
         else "")
        (if undecodable > 0 then Printf.sprintf ", %d undecodable record(s)" undecodable
         else "");
      0

let journal_dump path =
  if not (Sys.file_exists path) then structured_error "no such journal: %s" path
  else if Sys.is_directory path then journal_dump_dir path
  else begin
    let r = Journal.replay path in
    let npairs, undecodable = dump_verdict_records r.Journal.records in
    say "%d pair(s)%s%s" npairs
      (if undecodable > 0 then Printf.sprintf ", %d undecodable record(s)" undecodable
       else "")
      (if r.Journal.torn then ", torn trailing record dropped" else "");
    0
  end

let journal_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  Cmd.v
    (Cmd.info "journal"
       ~doc:"Dump a verification journal: a single file, or a sharded journal \
             directory (all shards merged, quarantined pairs listed)")
    Term.(const journal_dump $ path)

(* ------------------------------------------------------------------ *)
(* report: aggregate a run's durable state into one deterministic
   document.  The journal-only form is byte-identical across equivalent
   runs (CI diffs two independent seeded runs); the telemetry section is
   opt-in because its timestamps are real time. *)

let report_run journal telemetry =
  match Report.of_files_rendered ~journal ?telemetry () with
  | Ok doc ->
      print_string doc;
      0
  | Error msg -> structured_error "%s" msg

let report_cmd =
  let journal =
    Arg.(required & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Verdict journal to aggregate: a single file, or a sharded journal \
                   directory (its quarantine.jrnl is folded in automatically).")
  in
  let telemetry =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"PATH"
             ~doc:"Also summarise an OTL1 telemetry journal: sample count, pool \
                   pressure, peak RSS, throughput curve.  Off by default — telemetry \
                   carries real timings, and the journal-only report is \
                   byte-identical across equivalent runs.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Aggregate a run's journals into a deterministic report: verdict classes, \
             degradation rungs, quarantine reasons, per-phase latency percentiles \
             and (with --telemetry) the run-health summary")
    Term.(const report_run $ journal $ telemetry)

(* ------------------------------------------------------------------ *)
(* corpus: materialise a generated-corpus description as a directory of
   one-pair manifests (a few bytes per pair — the programs are regenerated
   from the coordinates at verification time). *)

let corpus_write dir count seed =
  if count < 0 then structured_error "--count must be >= 0"
  else begin
    Source.write_dir ~dir ~seed ~count;
    say "wrote %d pair manifest(s) to %s (seed %d)" count dir seed;
    0
  end

(* Validation mode: walk the directory like a verification run would,
   counting readable pairs.  Lenient mode mirrors the historical
   skip-with-warning behaviour; --strict turns the first malformed
   manifest into a structured error and exit 2, so CI catches a corrupted
   corpus before burning a batch on it. *)
let corpus_check dir strict =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    structured_error "no such corpus directory: %s" dir
  else begin
    let src = Source.directory ~strict dir in
    let rec drain n =
      match Source.next src with None -> n | Some _ -> drain (n + 1)
    in
    match drain 0 with
    | n ->
        say "corpus %s: %d readable pair manifest(s)" dir n;
        0
    | exception Source.Malformed_manifest path ->
        structured_error "malformed pair manifest: %s" path
  end

let corpus_run dir count seed check strict =
  if strict && not check then structured_error "--strict requires --check"
  else if check then corpus_check dir strict
  else corpus_write dir count seed

let corpus_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let count =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"N" ~doc:"How many generated pairs to describe.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed recorded in every manifest.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate an existing corpus directory instead of writing one: \
                   parse every .pair manifest and report the readable count.  \
                   Malformed manifests are skipped with a warning, as a \
                   verification run would skip them.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"With --check: fail on the first malformed manifest with a \
                   structured error and exit 2 instead of skipping it.")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"Write a corpus directory of pair manifests for verify-all --corpus DIR, \
             or validate one with --check [--strict]")
    Term.(const corpus_run $ dir $ count $ seed $ check $ strict)

(* ------------------------------------------------------------------ *)
(* trace: schema validation of a --trace output file.  Exit 0 on a valid
   file, structured error and exit 2 otherwise — CI pins the span schema
   with this. *)

let trace_validate path =
  match Trace.validate_file path with
  | Ok s ->
      say "trace OK: %d event(s), %d span(s), phases covered: %s" s.Trace.events s.Trace.spans
        (match s.Trace.phases_covered with [] -> "(none)" | ps -> String.concat ", " ps);
      0
  | Error msg -> structured_error "invalid trace %s: %s" path msg

let trace_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Validate a --trace JSONL file: balanced begin/end span events per domain, \
             monotonic timestamps, known phase categories")
    Term.(const trace_validate $ path)

let () =
  (* Pool/worker diagnostics (swallowed task exceptions, retry notices,
     quarantine warnings) go through the leveled Log module, whose stderr
     sink needs no setup; OCTOPOCS_LOG / --log-level move the threshold
     and --log-json mirrors the stream to a JSONL file. *)
  let info = Cmd.info "octopocs" ~doc:"Verify propagated vulnerable code with reformed PoCs" in
  (* ~catch:false so an unexpected exception maps to the documented tool-
     crash exit code instead of cmdliner's 125. *)
  match
    Cmd.eval' ~catch:false
      (Cmd.group info
         [
           verify_cmd; verify_all_cmd; scan_cmd; explain_cmd; inspect_cmd; fuzz_cmd;
           journal_cmd; report_cmd; corpus_cmd; trace_cmd;
         ])
  with
  | code -> exit code
  | exception e ->
      Format.eprintf "octopocs: tool crash: %s@." (Printexc.to_string e);
      exit 3
