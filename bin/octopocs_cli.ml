(* Command-line interface to the OCTOPOCS reproduction.

   Subcommands:
     verify <idx>     run the full pipeline on one Table II pair
     verify-all       verify a pair source: the 15 Table II pairs (default,
                      printed as the Table II summary), a generated corpus
                      or a corpus directory (--corpus)
     scan             discover (S, T) candidates across a corpus by clone
                      detection, then verify every candidate
     inspect <idx>    show the pair's programs, PoC hexdump and ℓ
     fuzz <idx>       run the AFLFast baseline on the pair's T binary
     explain <pair>   re-verify one registry pair with provenance collection
                      on and print the deterministic explanation narrative
                      (why the verdict: taint bunches, forced branches, pin
                      conflicts with minimized cores, crash site); with
                      --journal PATH, render the journaled record of the
                      pair labelled <pair> instead, or the quarantine
                      record of a pair set aside
     journal <path>   dump a verification journal (one line per settled
                      pair, sorted by label — diffable across runs — then
                      one per quarantined pair)
     trace <path>     validate a --trace JSONL file against the span
                      schema (balanced begin/end, monotonic timestamps)
     report           aggregate a run's journals into a deterministic report
     corpus <dir>     write (or --check) a directory of pair manifests

   verify-all, scan and verify run pairs through one library call,
   [Octo_report.Runlog.run]: it pulls pairs on demand under a bounded
   in-flight window, reuses verdicts journaled under the same content key
   (--resume), journals each settle (--journal PATH), and quarantines
   pairs whose workers still crash after --retries (--chaos-site
   worker-crash=RATE drills that path).  This file keeps the
   verdict tally, the progress meter, the printing and the environment
   test hooks ([verify_entries]); verify N is a one-pair run with no
   journal.

   A run's durable state is one journal file PATH, holding its verdict
   and quarantine records and, with the --telemetry flag, its run-health
   samples; Runlog owns that layout.  A fresh run refuses to overwrite
   PATH; --resume appends to it.  journal, report and explain --journal
   load through [Runlog.load]; a PATH.quarantine or PATH.telemetry left
   by a removed layout is refused with exit 2.

   Observability: verify and verify-all take --trace PATH (Chrome
   trace-viewer JSONL of the pipeline's phase spans), --metrics (per-pair
   counter/latency breakdowns, journaled with the verdicts) and
   --provenance (per-pair causal evidence logs, journaled as OPR3 tail
   fields and rendered by explain).

   Exit codes report the verdict, not the paper-match status:
     0 = Triggered, 1 = Not_triggerable, 2 = Failure, 3 = tool/worker crash.
   [verify] maps its single verdict; [verify-all] reports the WORST verdict
   across the batch under the same convention (the registry contains one
   expected-Failure pair, so a faithful full run exits 2), and exits 3
   when every pair was quarantined.  A bad pair index, and an output
   path that cannot be created (--journal, --trace, --log-json, a corpus
   directory), are structured one-line errors and exit 2, never a
   backtrace; a run removes the journal file it created before such an
   error. *)

open Cmdliner
module Registry = Octo_targets.Registry
module Source = Octo_targets.Source
module Scan = Octo_targets.Scan
module B = Octo_util.Bytes_util
module Faultinject = Octo_util.Faultinject
module Log = Octo_util.Log
module Metrics = Octo_util.Metrics
module Trace = Octo_util.Trace
module Report = Octo_report.Report
module Runlog = Octo_report.Runlog

let say fmt = Format.printf (fmt ^^ "@.")

let structured_error fmt =
  Format.kasprintf (fun msg -> Format.eprintf "octopocs: error: %s@." msg; 2) fmt

(* [with_output ?path ?close open_ f] opens an output file or directory,
   then runs [f].  A path that cannot be created raises
   [Runlog.Cannot_write] ([Sys_error] already reads "PATH: reason"), which
   the entry point reports as a structured error, exit 2, not a tool
   crash.  When a later output path fails inside [f], the file at [path]
   is closed and removed if this invocation created it; a file that
   existed before is left as it is. *)
let with_output ?path ?(close = ignore) open_ f =
  let created = match path with Some p -> not (Sys.file_exists p) | None -> false in
  (match open_ () with
  | () -> ()
  | exception Unix.Unix_error (e, _, p) ->
      raise (Runlog.Cannot_write (p ^ ": " ^ Unix.error_message e))
  | exception Sys_error msg -> raise (Runlog.Cannot_write msg));
  match f () with
  | code -> code
  | exception (Runlog.Cannot_write _ as e) ->
      if created then begin
        close ();
        Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) path
      end;
      raise e

(* A NaN or negative --deadline is a usage error.  0 stays legal (the
   already-expired drill), and a budget past the clock's range means no
   deadline at all. *)
let with_valid_deadline deadline f =
  match deadline with
  | Some d when Float.is_nan d || d < 0.0 ->
      structured_error "--deadline must be a number of seconds >= 0 (got %g)" d
  | _ -> f ()

(* A fault injector from the chaos flags.  [site_rates] empty: --chaos-seed
   alone arms every site at the default rate.  Otherwise named-sites mode:
   only the listed sites fire, at their listed rates, everything else
   stays silent (rate 0), seeded by --chaos-seed or a fixed default.
   [derive] turns the batch seed into this injector's own seed. *)
let injector ~chaos_seed ~site_rates derive =
  match (site_rates, chaos_seed) with
  | [], None -> Faultinject.none
  | [], Some seed -> Faultinject.create ~seed:(derive seed) ()
  | _ :: _, _ ->
      let seed = Option.value chaos_seed ~default:0xC0FFEE in
      Faultinject.create ~seed:(derive seed) ~rate:0.0 ~site_rates ()

(* Per-pair pipeline configuration from the shared robustness flags.  The
   chaos seed derives one independent injector per pair from an FNV mix of
   the pair's label, so a batch's fault schedule depends neither on pull
   order nor on which worker runs the pair, and [verify N] replays pair N's
   schedule of a [verify-all] run (the registry's labels are the pair
   indices). *)
let config_for_label ?(dynamic = false) ?(site_rates = []) ~deadline ~chaos_seed label =
  let inject =
    injector ~chaos_seed ~site_rates (fun seed -> Faultinject.seed_for ~seed label)
  in
  { Octopocs.default_config with dynamic_cfg = dynamic; deadline_s = deadline; inject }

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
  with_output ?path:trace (fun () -> Option.iter (fun path -> Trace.enable ~path) trace)
  @@ fun () ->
  if metrics then Metrics.enable ();
  if provenance then Octopocs.Provenance.enable ();
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

(* One pair's verify report: the pipeline artifacts, the verdict against
   the paper's, timings, metrics, provenance and the reformed PoC. *)
let say_pair_report (c : Registry.case) (r : Octopocs.report) =
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
  if got = want then say "  MATCH" else say "  MISMATCH (%s vs %s)" got want

(* The 0/1/2/3 verdict-exit convention shared by verify and verify-all.
   Worker crashes and stalls are the tool failing, not the verification
   failing, and map to the tool-crash code. *)
let crashed_verdict (r : Octopocs.report) =
  match r.verdict with
  | Octopocs.Failure msg ->
      String.starts_with ~prefix:"worker crashed" msg
      || String.starts_with ~prefix:"worker stalled" msg
  | _ -> false

let verdict_exit (r : Octopocs.report) =
  match r.verdict with
  | Octopocs.Triggered _ -> 0
  | Octopocs.Not_triggerable _ -> 1
  | Octopocs.Failure _ -> if crashed_verdict r then 3 else 2

(* The verdict tally of a verification run, updated from the stream's
   callbacks under its own lock.  It also keeps a running sum of the per-pair
   metrics snapshots (settled and cached alike), so the batch totals are
   exactly what the journal recorded. *)
module Tally = struct
  type t = {
    lock : Mutex.t;
    mutable triggered : int;
    mutable not_trig : int;
    mutable failures : int;
    mutable crashed : int;
    mutable cached : int;
    mutable quarantined : int;
    mutable quar_prior : int;
    mutable known : int;  (* pairs with an expected verdict class *)
    mutable matched : int;
    mutable worst : int;  (* worst verdict exit code *)
    msum : Metrics.snapshot;
    mutable snaps : int;  (* snapshots in [msum] *)
  }

  let create () =
    {
      lock = Mutex.create ();
      triggered = 0;
      not_trig = 0;
      failures = 0;
      crashed = 0;
      cached = 0;
      quarantined = 0;
      quar_prior = 0;
      known = 0;
      matched = 0;
      worst = 0;
      msum = Metrics.sum [];
      snaps = 0;
    }

  let add ?expected t (r : Octopocs.report) =
    Mutex.protect t.lock @@ fun () ->
    (match r.verdict with
    | Octopocs.Triggered _ -> t.triggered <- t.triggered + 1
    | Octopocs.Not_triggerable _ -> t.not_trig <- t.not_trig + 1
    | Octopocs.Failure _ ->
        if crashed_verdict r then t.crashed <- t.crashed + 1 else t.failures <- t.failures + 1);
    t.worst <- max t.worst (verdict_exit r);
    (match r.metrics with
    | Some m ->
        Metrics.add_into t.msum m;
        t.snaps <- t.snaps + 1
    | None -> ());
    match expected with
    | Some want ->
        t.known <- t.known + 1;
        if Octopocs.verdict_class r.verdict = want then t.matched <- t.matched + 1
    | None -> ()

  (* A pair reused from the journal counts as cached and as its verdict. *)
  let add_cached ?expected t r =
    Mutex.protect t.lock (fun () -> t.cached <- t.cached + 1);
    add ?expected t r

  let add_quarantined t = Mutex.protect t.lock (fun () -> t.quarantined <- t.quarantined + 1)

  let add_quarantined_prior t =
    Mutex.protect t.lock (fun () -> t.quar_prior <- t.quar_prior + 1)

  (* The "quarantined-prior=N" fragment of the progress line, if any. *)
  let quar_prior_note t =
    if t.quar_prior > 0 then Printf.sprintf " quarantined-prior=%d" t.quar_prior else ""

  let say_summary t =
    say "summary : %d triggered / %d not-triggerable / %d failure / %d crashed (%d cached, %d quarantined)"
      t.triggered t.not_trig t.failures t.crashed t.cached (t.quarantined + t.quar_prior)

  let say_expected t =
    if t.known > 0 then say "expected: %d/%d classes match" t.matched t.known

  (* Batch metrics: the sum of the per-pair snapshots, cached ones
     included, so the totals and a later `journal` dump agree. *)
  let say_metrics t =
    say "metrics : %s  (summed over %d pair snapshot(s))"
      (Fmt.str "%a" Metrics.pp_counters t.msum)
      t.snaps;
    say "phases  : %s" (Fmt.str "%a" Metrics.pp_phases t.msum)

  (* The worst verdict, except that a run which quarantined pairs and has
     no verdict at all exits with the tool-crash code: nothing was
     verified, and 0 would claim every pair Triggered. *)
  let exit_code t =
    let verdicts = t.triggered + t.not_trig + t.failures + t.crashed in
    if verdicts = 0 && t.quarantined + t.quar_prior > 0 then 3 else t.worst
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

(* Shared robustness flags. *)
let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SECS"
           ~doc:"Wall-clock budget per pair; expiry yields a Failure verdict, never a hang.")

let chaos_seed_arg =
  Arg.(value & opt (some int) None
       & info [ "chaos-seed" ] ~docv:"SEED"
           ~doc:"Enable deterministic fault injection, deriving one independent \
                 fault stream per pair from $(docv) and the pair's label (so \
                 $(b,verify) N replays pair N's schedule of a $(b,verify-all) \
                 run); a journaled batch also arms its journal writer from it.")

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

(* Shared logging flags.  [with_logging] wraps every command body that
   takes them, so even flag-validation warnings respect the chosen
   threshold. *)
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

let with_logging level json f =
  (match level with Some l -> Log.set_level l | None -> ());
  with_output ?path:json ~close:Log.close_jsonl (fun () -> Option.iter Log.set_jsonl json) f

let telemetry_arg =
  Arg.(value & flag
       & info [ "telemetry" ]
           ~doc:"Sample run health (throughput, pool retries/stalls, parent and \
                 child RSS, GC words, latency histograms) into the --journal file \
                 as OTL1 records, at most one per 100 ms, while the corpus \
                 streams; requires --journal.  --resume continues the journal's \
                 clock and counts.  Read them back with $(b,octopocs report \
                 --telemetry).")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Render a live single-line progress meter (settled count, \
                 recent throughput, ETA, quarantine count) on stderr, redrawn \
                 from the run-health samples at most every 100 ms; needs no \
                 --journal.  Automatically disabled when stderr is not a TTY.")

(* verify N: pair N as a one-entry run with no journal, through the same
   stream as verify-all, so the attempt-level chaos sites fire exactly as
   they do for pair N's row of a verify-all batch.  Returns the exit code. *)
let run_one ?(dynamic = false) ?deadline ?chaos_seed (c : Registry.case) =
  say "Pair %d: S=%s(%s)  T=%s(%s)  %s [%s]" c.idx c.s.pname c.s_version c.t.pname c.t_version
    c.vuln_id c.cwe;
  let label = string_of_int c.idx in
  let config = config_for_label ~dynamic ~deadline ~chaos_seed label in
  let next = Octopocs.stream_of_list [ Runlog.entry ~config ~label ~s:c.s ~t:c.t ~poc:c.poc () ] in
  let code = ref 3 in
  let on_row _ = function
    | Runlog.Settled { r; _ } ->
        say_pair_report c r;
        code := verdict_exit r
    | Runlog.Quarantined { q; _ } ->
        let want = Registry.expected_to_string c.expected in
        say "  verdict : QUARANTINED (%s: %s)  (expected %s)" q.qreason q.qmessage want;
        say "  MISMATCH (quarantined vs %s)" want
  in
  match Runlog.run ~on_row next with
  | Ok _ -> !code
  | Error msg -> structured_error "%s" msg

let verify_cmd =
  let idx = Arg.(required & pos 0 (some int) None & info [] ~docv:"IDX") in
  Cmd.v (Cmd.info "verify" ~doc:"Verify one Table II pair")
    Term.(const (fun dynamic deadline chaos_seed trace metrics provenance idx ->
              with_valid_deadline deadline @@ fun () ->
              with_case idx (fun c ->
                  with_observability ~provenance ~trace ~metrics (fun () ->
                      run_one ~dynamic ?deadline ?chaos_seed c)))
          $ dynamic_arg $ deadline_arg $ chaos_seed_arg $ trace_arg $ metrics_arg
          $ provenance_arg $ idx)

(* ------------------------------------------------------------------ *)
(* The verification driver shared by verify-all and scan: a Runlog run
   (pairs pulled one at a time under a bounded in-flight window, each
   verdict journaled, pairs that exhaust the retry budget quarantined
   instead of failing the batch) plus the tally, the progress meter and
   the environment test hooks.  Peak memory is bounded by the window — a
   corpus is never materialised. *)

(* Test hook for the CI kill-and-resume smoke job: pacing each settle makes
   "SIGKILL lands mid-batch" a certainty instead of a race against a
   sub-second run. *)
let settle_delay_s =
  match Sys.getenv_opt "OCTOPOCS_SETTLE_DELAY" with
  | Some s -> ( match float_of_string_opt s with Some d when d > 0. -> d | _ -> 0.)
  | None -> 0.

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

(* The live --progress meter: a Telemetry sink redrawing one stderr line
   in place from each run-health sample ({!Report.meter_line}), so it
   reads the same series the journal records.  Its rate is measured
   against an anchor sample re-based every ~2 s, so it tracks the run's
   current phase rather than its lifetime average; the sampler's 100 ms
   interval throttles the redraws and its lock serialises them.  [None]
   unless --progress is given and stderr is a TTY: piped runs and CI logs
   never see control characters. *)
let progress_meter ~enabled ~total =
  if not (enabled && Unix.isatty Unix.stderr) then None
  else
    let anchor = ref None in
    Some
      (fun (s : Octo_util.Telemetry.sample) ->
        let a = Option.value !anchor ~default:s in
        Printf.eprintf "\r\027[K%s%!" (Report.meter_line ~total ~anchor:a s);
        if Option.is_none !anchor || s.ts_ns - a.ts_ns > 2_000_000_000 then anchor := Some s)

(* The verification-run flags verify-all and scan share. *)
type run_opts = {
  jobs : int;
  retries : int;
  deadline : float option;
  journal_path : string option;
  resume : bool;
  window : int option;
  isolate : Octopocs.isolation;
  limits : Octo_util.Sandbox.limits;
  telemetry : bool;
  progress : bool;
}

let run_opts_term =
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Verify pairs in parallel on $(docv) worker domains (default 1: serial).")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a crashed or stalled pair $(docv) extra times before \
                   quarantining it (default 0).")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Write-ahead journal: append each pair's verdict to the file \
                   $(docv) as it settles, and each quarantined pair's record (reason, \
                   message, backtrace, attempts) as it is set aside (CRC-framed, \
                   fsynced), so a killed batch loses nothing, and with --telemetry \
                   its run-health samples.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Replay the journal first: pairs already settled under an identical \
                   content key are reused, only unfinished ones re-run.  A torn \
                   trailing record (crash mid-append) is dropped and repaired.")
  in
  let window =
    Arg.(value & opt (some int) None
         & info [ "window" ] ~docv:"N"
             ~doc:"Bound on in-flight pairs: the pair source is pulled only while \
                   fewer than $(docv) are held.  Default: max(4, 2*jobs); a serial \
                   run holds one.  With --isolate proc it bounds the live children, so \
                   memory stays under $(docv) times --rlimit-as plus the parent.")
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
  let make jobs retries deadline journal_path resume window isolate as_mb cpu_s telemetry
      progress =
    {
      jobs;
      retries;
      deadline;
      journal_path;
      resume;
      window;
      isolate;
      limits = { Octo_util.Sandbox.as_mb; cpu_s };
      telemetry;
      progress;
    }
  in
  Term.(const make $ jobs $ retries $ deadline_arg $ journal $ resume $ window $ isolate
        $ rlimit_as $ rlimit_cpu $ telemetry_arg $ progress_arg)

(* A zero or negative --jobs or --window would be clamped to 1, and a
   zero or negative rlimit would kill every child: all are usage errors. *)
let with_run_opts o f =
  with_valid_deadline o.deadline @@ fun () ->
  let below_one = function Some n -> n < 1 | None -> false in
  if o.resume && o.journal_path = None then structured_error "--resume requires --journal PATH"
  else if o.telemetry && o.journal_path = None then
    structured_error "--telemetry requires --journal PATH (samples are journal records)"
  else if o.retries < 0 then structured_error "--retries must be >= 0"
  else if o.jobs < 1 then structured_error "--jobs must be >= 1"
  else if below_one o.window then structured_error "--window must be >= 1"
  else if below_one o.limits.as_mb then structured_error "--rlimit-as must be >= 1"
  else if below_one o.limits.cpu_s then structured_error "--rlimit-cpu must be >= 1"
  else if o.isolate = Octopocs.Domains && o.limits <> { as_mb = None; cpu_s = None } then
    structured_error "--rlimit-as/--rlimit-cpu require --isolate proc"
  else f ()

(* The driver: a {!Runlog} run from the shared flags.  [next] pulls the
   entries; [on_row label row] sees every pair's outcome, from the calling
   domain.  The journal writer's injector comes from the same chaos flags
   as the pairs'.  With [fail_fast] the cursor hands out nothing once a
   Failure has settled; the pairs it never handed out get no row and no
   journal record, so --resume runs them.  [total], the run's pair count
   when known, gives the progress meter its ETA.  Returns the stream's
   stats and the tally, or the exit code of a setup error. *)
let verify_entries o ~chaos_seed ~site_rates ~fail_fast ~total ?(on_row = fun _ _ -> ()) next =
  let inject = injector ~chaos_seed ~site_rates Runlog.journal_seed in
  let meter = progress_meter ~enabled:o.progress ~total in
  let tally = Tally.create () in
  let on_row (e : Runlog.entry) row =
    (match row with
    | Runlog.Settled { r; cached = false } ->
        if settle_delay_s > 0. then Unix.sleepf settle_delay_s;
        Tally.add ?expected:e.expected tally r
    | Runlog.Settled { r; cached = true } -> Tally.add_cached ?expected:e.expected tally r
    | Runlog.Quarantined { prior = true; _ } -> Tally.add_quarantined_prior tally
    | Runlog.Quarantined { prior = false; _ } -> Tally.add_quarantined tally);
    on_row e.label row;
    match row with
    | Runlog.Quarantined { q; prior = false } ->
        Log.warn (fun m ->
            m "quarantined %s after %d attempt(s): %s: %s" q.qlabel q.qattempts q.qreason
              q.qmessage)
    | _ -> ()
  in
  let result =
    (* While the meter draws, a log line first clears the meter's line,
       which the meter redraws at its next sample; at the end the line is
       cleared so the summary starts on a clean row. *)
    if Option.is_some meter then
      Log.set_sink (fun lvl msg ->
          prerr_string "\r\027[K";
          Log.stderr_sink lvl msg);
    Fun.protect ~finally:(fun () ->
        if Option.is_some meter then begin
          Log.reset_sink ();
          Printf.eprintf "\r\027[K%!"
        end)
    @@ fun () ->
    Runlog.run ?journal:o.journal_path ~telemetry:o.telemetry ?on_sample:meter ~resume:o.resume
      ~inject ~jobs:o.jobs ~retries:o.retries ?window:o.window ~isolate:o.isolate
      ~limits:o.limits ?pre_run:oom_pre_run ~fail_fast ~on_row next
  in
  match result with
  | Error msg -> Error (structured_error "%s" msg)
  | Ok st -> Ok (st, tally)

(* ------------------------------------------------------------------ *)
(* verify-all: any {!Source} through the driver. *)

(* The verdict a registry row shows for a pair --fail-fast never handed
   out. *)
let skipped_verdict = Octopocs.Failure "skipped: fail-fast after an earlier failure"

(* The Table II lines of a registry run, in registry order, with their
   [cached]/[degraded] tags and (with --metrics) the phase breakdown of the
   pair's snapshot — the journaled one for a cached pair.  A quarantined
   pair never matches; a pair without a row was skipped by --fail-fast.
   Returns how many pairs match the paper. *)
let say_registry_rows ~metrics_on rows =
  List.fold_left
    (fun matched (c : Registry.case) ->
      let want = Registry.expected_to_string c.expected in
      let verdict, got, tags, metrics =
        match rows.(c.idx - 1) with
        | Some (Runlog.Settled { r; cached }) ->
            ( Fmt.str "%a" (Octopocs.pp_verdict_prov r.provenance) r.verdict,
              Octopocs.verdict_class r.verdict,
              (if cached then "  [cached]" else "")
              ^ (if r.degradations = [] then ""
                 else Printf.sprintf "  [degraded: %s]" (String.concat " -> " r.degradations)),
              r.metrics )
        | Some (Runlog.Quarantined { q; _ }) ->
            (Printf.sprintf "QUARANTINED (%s: %s)" q.qreason q.qmessage, "", "", None)
        | None ->
            ( Fmt.str "%a" Octopocs.pp_verdict skipped_verdict,
              Octopocs.verdict_class skipped_verdict,
              "",
              None )
      in
      say "Pair %-3d %-22s -> %-40s %s%s" c.idx
        (Printf.sprintf "%s/%s" c.s.pname c.t.pname)
        verdict
        (if got = want then "MATCH" else Printf.sprintf "MISMATCH (want %s)" want)
        tags;
      (match metrics with
      | Some m when metrics_on -> say "         %s" (Fmt.str "%a" Metrics.pp_phases m)
      | _ -> ());
      if got = want then matched + 1 else matched)
    0 Registry.all

let run_verify_all o fail_fast trace metrics_on provenance_on corpus chaos_seed site_rates
    log_level log_json =
  with_logging log_level log_json @@ fun () ->
  with_run_opts o @@ fun () ->
  match Source.of_spec corpus with
  | Error msg -> structured_error "%s" msg
  | Ok src -> (
      with_observability ~provenance:provenance_on ~trace ~metrics:metrics_on @@ fun () ->
      (* Baseline for the batch's pool-level counters: metrics cells live
         for the whole process, so the batch view is a diff. *)
      let m0 = Metrics.aggregate () in
      let t0 = Unix.gettimeofday () in
      let next () =
        Source.next src
        |> Option.map (fun (p : Source.pair) ->
               let config =
                 config_for_label ~site_rates ~deadline:o.deadline ~chaos_seed p.plabel
               in
               Runlog.entry ~config ?ell:p.pell ?expected:p.pexpected ~label:p.plabel ~s:p.ps
                 ~t:p.pt ~poc:p.ppoc ())
      in
      (* The registry keeps one row per pair for the Table II lines; other
         sources keep nothing per pair. *)
      let rows =
        if Source.id src = "registry" then Some (Array.make (List.length Registry.all) None)
        else None
      in
      let on_row = Option.map (fun a label row -> a.(int_of_string label - 1) <- Some row) rows in
      match
        verify_entries o ~chaos_seed ~site_rates ~fail_fast ~total:(Source.size src) ?on_row
          next
      with
      | Error code -> code
      | Ok (st, tally) ->
          let wall =
            Printf.sprintf "%.3fs wall, %d worker %s" (Unix.gettimeofday () -. t0)
              (Octo_util.Pool.effective_jobs o.jobs)
              (worker_kind o.isolate)
          in
          let matched = Option.map (say_registry_rows ~metrics_on) rows in
          say "corpus  : %s  pulled=%d settled=%d quarantined=%d cached=%d%s peak-in-flight=%d"
            (Source.id src) st.st_pulled st.st_settled st.st_quarantined tally.cached
            (Tally.quar_prior_note tally) st.st_peak_in_flight;
          Tally.say_summary tally;
          (match matched with
          | Some m ->
              say "%d/%d pairs match the paper's verdicts (%s)" m (List.length Registry.all) wall
          | None ->
              Tally.say_expected tally;
              say "%s" wall);
          if metrics_on then begin
            Tally.say_metrics tally;
            say_pool m0
          end;
          Tally.exit_code tally)

(* A fault-injection rate: a float in [0,1] (NaN fails the range check). *)
let rate_conv =
  let parse s =
    match float_of_string_opt s with
    | Some r when r >= 0.0 && r <= 1.0 -> Ok r
    | _ -> Error (`Msg "RATE must be a float in [0,1]")
  in
  Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%g" r)

let verify_all_cmd =
  let fail_fast =
    Arg.(value & flag
         & info [ "fail-fast" ]
             ~doc:"Stop handing out pairs once a Failure verdict settles.  Pairs never \
                   handed out are not journaled (so --resume runs them); the registry \
                   table prints them as skipped.")
  in
  let corpus =
    Arg.(value & opt string "registry"
         & info [ "corpus" ] ~docv:"SPEC"
             ~doc:"Pair source: $(b,registry) (the 15 Table II pairs, default), \
                   $(b,gen:COUNT[:SEED]) (the deterministic generated corpus; seed \
                   defaults to 42), or a corpus directory of pair manifests (see the \
                   $(b,corpus) subcommand).  Every source streams: pairs are pulled \
                   on demand and never materialised as a list.")
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
                   vm-syscall, solver-budget, worker-crash (the poison-pair \
                   quarantine drill), deadline-expiry, \
                   journal-write (tears an append of the --journal writer), \
                   worker-stall, child-segv, child-oom-kill.")
  in
  Cmd.v
    (Cmd.info "verify-all" ~doc:"Verify all 15 pairs, or stream a corpus"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "The exit code is the worst verdict across the batch, matching verify's \
               single-pair convention: 0 all pairs Triggered; 1 some pair \
               Not-triggerable; 2 some pair Failure; 3 a worker-crash verdict \
               replayed from an older journal.  (The registry's pair 15 is an \
               expected Failure, so a faithful full run exits 2.)  A pair whose \
               worker still crashes or stalls after --retries is quarantined and \
               leaves the code alone, except that a run in which every pair was \
               quarantined (no verdict settled or cached) exits 3.";
         ])
    Term.(const run_verify_all $ run_opts_term $ fail_fast $ trace_arg $ metrics_arg
          $ provenance_arg $ corpus $ chaos_seed_arg $ chaos_sites $ log_level_arg
          $ log_json_arg)

(* ------------------------------------------------------------------ *)
(* scan: the clone-detection front-end.  Instead of verifying annotated
   (S, T) pairs, discover them: index every target program of a corpus
   (plus optional seeded decoys) by exact function fingerprint, retrieve
   the targets that link each probe's annotated vulnerable function,
   print the precision/recall table, and pipe every candidate through
   the same driver as verify-all, whose pipeline crashes S and picks ep
   as for any pair. *)

let run_scan o corpus strict decoys decoy_seed no_verify min_recall log_level log_json =
  with_logging log_level log_json @@ fun () ->
  with_run_opts o @@ fun () ->
  if decoys < 0 then structured_error "--decoys must be >= 0"
  else if no_verify && (o.telemetry || o.progress) then
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
            let targets = corpus_targets @ Scan.decoy_targets ~seed:decoy_seed ~count:decoys in
            let result = Scan.run ~probes ~targets ~n_decoys:decoys () in
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
              (* Verification stage: one entry per candidate, built by
                 the scan's own policy ({!Scan.jobs}): a diagonal entry
                 shares a verify-all run's content key and is handed the
                 ℓ the scan joined, so no program is profiled twice. *)
              let entries =
                List.map
                  (fun (jb : Scan.job) ->
                    let config =
                      config_for_label ~deadline:o.deadline ~chaos_seed:None jb.jb_label
                    in
                    let e =
                      Runlog.entry ~config ?ell:jb.jb_ell ?expected:jb.jb_expected
                        ~label:jb.jb_label ~s:jb.jb_s ~t:jb.jb_t ~poc:jb.jb_poc ()
                    in
                    Octopocs.seed_ell (Octopocs.job_products e.job) jb.jb_derived_ell;
                    e)
                  (Scan.jobs result)
              in
              match
                verify_entries o ~chaos_seed:None ~site_rates:[] ~fail_fast:false
                  ~total:(Some (List.length entries)) (Octopocs.stream_of_list entries)
              with
              | Error code -> code
              | Ok (st, tally) ->
                  say "verify  : candidates=%d settled=%d quarantined=%d cached=%d%s"
                    (List.length entries) st.st_settled st.st_quarantined tally.cached
                    (Tally.quar_prior_note tally);
                  Tally.say_summary tally;
                  Tally.say_expected tally;
                  say "%.3fs wall (%.3fs detection), %d worker %s"
                    (Unix.gettimeofday () -. t0)
                    detect_elapsed
                    (Octo_util.Pool.effective_jobs o.jobs)
                    (worker_kind o.isolate);
                  max (Tally.exit_code tally) (if recall_bad then 1 else 0)
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
                   round-robin.  None links the exact fingerprint of a probe's \
                   vulnerable function, so none is retrieved.")
  in
  let decoy_seed =
    Arg.(value & opt int 7
         & info [ "decoy-seed" ] ~docv:"SEED" ~doc:"Seed for the decoy generator.")
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
  Cmd.v
    (Cmd.info "scan"
       ~doc:"Discover (S, T, ℓ) candidates across a corpus by clone detection \
             (every target that links an exact clone of a probe's vulnerable \
             function), report precision/recall, and verify every candidate: the \
             pipeline crashes S on its PoC and picks ep as for any pair, so a \
             candidate whose S does not crash settles as a Failure"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 on success (worst candidate verdict Triggered, or --no-verify with \
               recall above --min-recall); 1 when some candidate is Not-triggerable \
               or recall falls below --min-recall; 2 on a Failure verdict or a \
               structured error; 3 when every candidate was quarantined (or a \
               replayed verdict records a crashed worker).";
         ])
    Term.(const run_scan $ run_opts_term $ corpus $ strict $ decoys $ decoy_seed $ no_verify
          $ min_recall $ log_level_arg $ log_json_arg)

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
  let config = config_for_label ~dynamic ~deadline ~chaos_seed:None (string_of_int c.idx) in
  let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
  print_string (Octopocs.explain_report ~label:(Printf.sprintf "pair %d" c.idx) r);
  0

(* A journaled pair, by its label: its verdict record, or, for a pair set
   aside, why.  A registry pair's label is its index. *)
let explain_journal path label =
  match Runlog.load path with
  | Error msg -> structured_error "%s" msg
  | Ok run -> (
      let title = "pair " ^ label in
      match
        ( List.find_opt (fun (l, _, _) -> l = label) run.verdicts,
          List.find_opt (fun (q : Octopocs.quarantine) -> q.qlabel = label) run.quarantine )
      with
      | Some (_, _, rep), _ ->
          print_string (Octopocs.explain_report ~label:title rep);
          0
      | None, Some q ->
          say "OCTOPOCS explanation — %s" title;
          say "verdict : QUARANTINED (%s after %d attempt(s))" q.qreason q.qattempts;
          say "message : %s" q.qmessage;
          say "(no verdict: the pair was set aside in %s)" path;
          0
      | None, None -> structured_error "journal %s has no record for pair %s" path label)

let explain_cmd =
  let pair = Arg.(required & pos 0 (some string) None & info [] ~docv:"PAIR") in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Render the journaled record of the pair labelled $(i,PAIR) (a \
                   registry index or a corpus label) from $(docv) instead of \
                   re-verifying (the record carries provenance only when the batch \
                   ran with --provenance); a quarantined pair prints its quarantine \
                   reason, attempts and message.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain a pair's verdict: the causal evidence (taint bunches, forced \
             branches, pin conflicts with minimized constraint cores, crash site) \
             rendered as a deterministic, diffable narrative.  Without --journal, \
             $(i,PAIR) is a registry index")
    Term.(const (fun dynamic deadline journal pair ->
              with_valid_deadline deadline @@ fun () ->
              match (journal, int_of_string_opt pair) with
              | Some path, _ -> explain_journal path pair
              | None, Some idx -> with_case idx (explain_live ~dynamic ~deadline)
              | None, None ->
                  structured_error
                    "pair %s is not a registry index; a corpus label needs --journal PATH" pair)
          $ dynamic_arg $ deadline_arg $ journal $ pair)

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
   timings), one sorted line per pair, then one per quarantined pair (no
   backtrace) — two journals of equivalent runs diff clean, which is
   exactly what the kill-and-resume CI check does.  Loading, dedupe (last
   record per label wins) and ordering are [Runlog.load]'s. *)

let say_verdict_line (label, key, (rep : Octopocs.report)) =
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
    metrics_detail prov_detail

let journal_dump path =
  match Runlog.load path with
  | Error msg -> structured_error "%s" msg
  | Ok r ->
      List.iter say_verdict_line r.verdicts;
      List.iter
        (fun (q : Octopocs.quarantine) ->
          say "quar %-4s key=%s %s after %d attempt(s): %s" q.qlabel q.qkey q.qreason
            q.qattempts q.qmessage)
        r.quarantine;
      say "%d pair(s), %d quarantined%s%s" (List.length r.verdicts) (List.length r.quarantine)
        (if r.undecodable > 0 then Printf.sprintf ", %d undecodable record(s)" r.undecodable
         else "")
        (if r.torn then ", torn trailing record dropped" else "");
      0

let journal_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  Cmd.v
    (Cmd.info "journal"
       ~doc:"Dump a verification journal file: its settled pairs, then its \
             quarantined pairs")
    Term.(const journal_dump $ path)

(* ------------------------------------------------------------------ *)
(* report: aggregate a run's durable state into one deterministic
   document.  The journal-only form is byte-identical across equivalent
   runs (CI diffs two independent seeded runs); the telemetry section is
   opt-in because its timestamps are real time. *)

let report_run journal telemetry =
  match Runlog.load journal with
  | Ok run ->
      print_string (Report.render ~telemetry run);
      0
  | Error msg -> structured_error "%s" msg

let report_cmd =
  let journal =
    Arg.(required & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Journal file to aggregate: its verdicts and quarantined pairs.")
  in
  let telemetry =
    Arg.(value & flag
         & info [ "telemetry" ]
             ~doc:"Also summarise the journal's OTL1 run-health samples: sample \
                   count, pool pressure, peak RSS, throughput curve.  Off by default \
                   — samples carry real timings, and the report without them is \
                   byte-identical across equivalent runs.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Aggregate a run's journals into a deterministic report: verdict classes, \
             degradation rungs, quarantine reasons, per-phase latency percentiles \
             and (with --telemetry) the run-health summary.  A run's workers share \
             S's crash run and taint across consecutive pairs of one S, so the \
             S-side phases are counted once per shared S, on the pair that ran \
             them.")
    Term.(const report_run $ journal $ telemetry)

(* ------------------------------------------------------------------ *)
(* corpus: materialise a generated-corpus description as a directory of
   one-pair manifests (a few bytes per pair — the programs are regenerated
   from the coordinates at verification time). *)

let corpus_write dir count seed =
  if count < 0 then structured_error "--count must be >= 0"
  else
    with_output (fun () -> Source.write_dir ~dir ~seed ~count) @@ fun () ->
    say "wrote %d pair manifest(s) to %s (seed %d)" count dir seed;
    0

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
  (* Worker diagnostics (retry notices, quarantine warnings) go through
     the leveled Log module, whose stderr sink needs no setup;
     OCTOPOCS_LOG / --log-level move the threshold and --log-json mirrors
     the stream to a JSONL file. *)
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
  | exception Runlog.Cannot_write msg -> exit (structured_error "cannot write %s" msg)
  | exception e ->
      Format.eprintf "octopocs: tool crash: %s@." (Printexc.to_string e);
      exit 3
