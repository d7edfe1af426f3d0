(* Deterministic run-report aggregation.

   [render] folds a run's journal, as {!Runlog.load} reads it (its
   verdict, quarantine and, optionally, OTL1 telemetry records), into
   one plain-text document: verdict-class breakdown, degradation-rung
   frequencies, quarantine reasons, p50/p90/p99 per-phase latencies off
   the journaled log2 histograms, and a throughput summary from the
   telemetry samples.

   Determinism contract: the rendering is a pure function of the input
   file bytes.  No paths, wall-clock times, hostnames or map iteration
   orders leak in — class order is fixed, every other breakdown is
   sorted lexicographically, and verdicts arrive deduped (last record
   per label wins) and ordered by [Octopocs.sort_dump] from
   [Runlog.load], the one loader the CLI's journal dump and explain read
   through too.  Two invocations over the
   same files are byte-identical; two *independent* runs of the same
   seeded corpus agree too, as long as the report sticks to the
   verdict-derived sections (telemetry timestamps and latency histograms
   are real time, which is why the telemetry section only appears when
   asked for with [~telemetry:true], and why the latency section reads
   "(no metrics journaled)" unless the run recorded them).  A run with
   telemetry and the same run without it render the same report
   without that section. *)

module Metrics = Octo_util.Metrics
module Telemetry = Octo_util.Telemetry

(* -- aggregation helpers ----------------------------------------------- *)

(* Fold occurrences into sorted (key, count) rows — the one shape every
   breakdown below shares.  Sorting by key (not count) is a determinism
   rule: counts tie, names don't. *)
let tally xs =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 7 in
  List.iter
    (fun k -> Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    xs;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let classes = [ "Type-I"; "Type-II"; "Type-III"; "Failure" ]

(* -- rendering --------------------------------------------------------- *)

let render ?(telemetry = false) (r : Runlog.t) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "octopocs run report";
  line "===================";
  line "";
  line "verdicts: %d pair(s)%s%s" (List.length r.verdicts)
    (if r.undecodable > 0 then Printf.sprintf ", %d undecodable record(s)" r.undecodable
     else "")
    (if r.torn then ", 1 torn tail(s) dropped" else "");
  let by_class =
    tally (List.map (fun (_, _, rep) -> Octopocs.verdict_class rep.Octopocs.verdict) r.verdicts)
  in
  List.iter
    (fun c ->
      match List.assoc_opt c by_class with
      | Some n -> line "  %-22s %6d" c n
      | None -> ())
    classes;
  (* A journal written by a future release may class verdicts we don't
     know; surface them rather than silently dropping the count. *)
  List.iter
    (fun (c, n) -> if not (List.mem c classes) then line "  %-22s %6d" c n)
    by_class;
  line "";
  line "degradation rungs:";
  let rungs =
    tally (List.concat_map (fun (_, _, rep) -> rep.Octopocs.degradations) r.verdicts)
  in
  if rungs = [] then line "  (none)"
  else List.iter (fun (rung, n) -> line "  %-22s %6d" rung n) rungs;
  line "";
  line "quarantine: %d pair(s)" (List.length r.quarantine);
  List.iter
    (fun (reason, n) -> line "  %-22s %6d" reason n)
    (tally (List.map (fun (q : Octopocs.quarantine) -> q.Octopocs.qreason) r.quarantine));
  line "";
  line "phase latencies (p50/p90/p99 ns, log2-bucket lower bounds):";
  let snaps = List.filter_map (fun (_, _, rep) -> rep.Octopocs.metrics) r.verdicts in
  if snaps = [] then line "  (no metrics journaled)"
  else begin
    let sum = Metrics.sum snaps in
    List.iter
      (fun p ->
        match Metrics.percentile sum p 50.0 with
        | None -> line "  %-10s (no spans)" (Metrics.phase_name p)
        | Some p50 ->
            let pc pct = Option.value ~default:0 (Metrics.percentile sum p pct) in
            line "  %-10s %10d / %10d / %10d  (%d span(s))" (Metrics.phase_name p) p50
              (pc 90.0) (pc 99.0) (Metrics.phase_spans sum p))
      Metrics.all_phases
  end;
  if telemetry then begin
    line "";
    line "telemetry: %d sample(s)" (List.length r.samples);
    match (r.samples, List.rev r.samples) with
    | [], _ | _, [] -> ()
    | first :: _, last :: _ ->
        let s = last in
        line "  span                   %.3f s"
          (float_of_int (s.Telemetry.ts_ns - first.Telemetry.ts_ns) /. 1e9);
        line "  pulled/settled/quar    %d / %d / %d" s.Telemetry.pulled s.Telemetry.settled
          s.Telemetry.quarantined;
        line "  retries/stalls         %d / %d" s.Telemetry.retries s.Telemetry.stalls;
        line "  backoffs               %d" s.Telemetry.backoffs;
        let peak f = List.fold_left (fun acc x -> max acc (f x)) 0 r.samples in
        line "  peak rss (parent)      %d KiB" (peak (fun x -> x.Telemetry.rss_kb));
        line "  peak rss (child max)   %d KiB" (peak (fun x -> x.Telemetry.child_rss_kb));
        line "  peak in-flight         %d of window %d"
          (peak (fun x -> x.Telemetry.in_flight))
          (peak (fun x -> x.Telemetry.window));
        (* Throughput curve: overall rate plus the steepest inter-sample
           segment — enough to see a run that front-loaded or stalled. *)
        let span_s = float_of_int (s.Telemetry.ts_ns - first.Telemetry.ts_ns) /. 1e9 in
        if span_s > 0. && s.Telemetry.settled > first.Telemetry.settled then begin
          line "  throughput (overall)   %.1f pairs/s"
            (float_of_int (s.Telemetry.settled - first.Telemetry.settled) /. span_s);
          let best = ref 0. in
          ignore
            (List.fold_left
               (fun prev x ->
                 (match prev with
                 | Some (p : Telemetry.sample) when x.Telemetry.ts_ns > p.Telemetry.ts_ns
                   ->
                     let rate =
                       float_of_int (x.Telemetry.settled - p.Telemetry.settled)
                       /. (float_of_int (x.Telemetry.ts_ns - p.Telemetry.ts_ns) /. 1e9)
                     in
                     if rate > !best then best := rate
                 | _ -> ());
                 Some x)
               None r.samples);
          line "  throughput (peak)      %.1f pairs/s" !best
        end
  end;
  Buffer.contents b

(* -- live meter -------------------------------------------------------- *)

(* The line the CLI's --progress meter draws for sample [s]: the settled
   count (of [total] when the source knows its size), the rate since
   [anchor] (0.0 until the two span 0.2 s), an ETA when [total] is known
   and the rate positive, and the quarantine count when non-zero. *)
let meter_line ~total ~(anchor : Telemetry.sample) (s : Telemetry.sample) =
  let dt = float_of_int (s.ts_ns - anchor.ts_ns) /. 1e9 in
  let rate = if dt > 0.2 then float_of_int (s.settled - anchor.settled) /. dt else 0. in
  let count, eta =
    match total with
    | None -> (string_of_int s.settled, "")
    | Some n ->
        ( Printf.sprintf "%d/%d" s.settled n,
          if rate > 0. && n > s.settled then
            Printf.sprintf " eta %.0fs" (float_of_int (n - s.settled) /. rate)
          else "" )
  in
  Printf.sprintf "%s settled, %.1f pairs/s%s%s" count rate eta
    (if s.quarantined > 0 then Printf.sprintf ", %d quarantined" s.quarantined else "")
