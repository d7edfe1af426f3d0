(* One benchmark segment: a single workload, timed in chunks for a fixed
   number of seconds in this fresh process, then reported as one JSON line
   of raw samples on stdout.  [run.py] spawns several segments per run and
   turns their samples into the end-to-end and per-layer metrics.

   Workloads (see README.md for why each exists):
   - registry    : the 15 Table II pairs through [Octopocs.run_all], whole
                   passes, after one untimed cache-filling pass
   - corpus      : [gen:N:SEED] streamed through [run_stream], Domain mode,
                   one worker, every verdict journaled (no fsync)
   - corpus-proc : the same stream under process isolation, at most
                   [--nproc] live children
   - scan        : clone detection over fresh [gen:60] corpora plus three
                   decoys, then verification of every confirmed candidate

   With [--trace 1] the timed loop runs with [Metrics.enable], and a probe
   pass after it times the public calls into each layer on the workload's
   own inputs.  Nothing in the timed loop is traced beyond the program's
   own metrics, so the traced/untraced gap is the tracing overhead. *)

module Metrics = Octo_util.Metrics
module Journal = Octo_util.Journal
module Sandbox = Octo_util.Sandbox
module Source = Octo_targets.Source
module Scan = Octo_targets.Scan
module Registry = Octo_targets.Registry
module Detect = Octo_clone.Detect
module Clone = Octo_clone.Clone
module Compile = Octo_vm.Compile
module Isa = Octo_vm.Isa

let now = Unix.gettimeofday

(* -- options ------------------------------------------------------------- *)

let workload = ref ""
let seed = ref 42
let segment = ref 0
let seconds = ref 4.0
let traced = ref false
let spawn_time = ref 0.0
let nproc = ref 1
let work_dir = ref "."

(* Scan corpus size.  Hits grow about as M^2; M = 60 keeps one detection
   pass near half a second, while its 120 S/T programs and several hundred
   candidate pairs overflow the 64-entry compile cache and the 256-entry ℓ
   cache.  Candidates per second depend on the corpus's family mix, so
   every pass scans a fresh corpus and a run averages dozens of mixes. *)
let scan_pairs = 60

(* The repository's own scan fixture (bench history, detect tests): three
   decoys from decoy seed 7, one of each kind. *)
let decoy_seed = 7
let n_decoys = 3

(* Pairs whose work counters the traced probe reports; fixed so the counts
   are exact functions of the seed. *)
let prefix_pairs = 200
let detect_probe_pairs = 40

(* -- machine-speed reference ------------------------------------------------ *)

(* This shared box drifts: the same fixed work can take 30% longer one
   minute than the next, and CPU time drifts with it.  So the timed loop
   runs in chunks of about [chunk_s], and after every chunk the harness
   times a fixed reference workload in this same process, on this same
   core.  Every timed interval of a chunk is then scaled by
   [ref_nominal_s /. measured], with [measured] the mean of the reference
   times on either side of it: end-to-end times are reported in reference
   seconds, the seconds this machine takes while it runs the reference at
   its nominal speed.

   The reference uses only the Stdlib and never calls the program.  It is
   half allocation-heavy (hashing, strings, sorting) and half an
   allocation-free loop over an L1-sized array, because the two halves
   bracket the verifier: over a minute of drift, corpus pairs, the
   registry pairs and pair 3 alone each slowed with the allocating half
   to the power 0.7-0.75 and with the compute half to the power 1.4-1.6,
   and with the even mix to the power 1.05-1.13 (correlation 0.90-0.97).
   The allocating half starts from an empty minor heap and allocates less
   than it holds, so no collection runs inside it and the program's heap
   cannot change its duration; an untimed round first touches the minor
   heap's pages, whose first writes after a fork would otherwise fault. *)

let alloc_unit () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 4_000 do
    Hashtbl.replace h (i * 7919 land 1023) (string_of_int i)
  done;
  let l = List.sort compare (List.init 2_000 (fun i -> i * 7919 land 65535)) in
  let b = Buffer.create 1024 in
  List.iter (fun x -> if x land 15 = 0 then Buffer.add_string b (string_of_int x)) l;
  Hashtbl.length h + Buffer.length b

let scratch = Array.init 2048 (fun i -> i * 2654435761 land 0xffff)

let compute_unit () =
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 70_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land 2047 in
    let v = Array.unsafe_get scratch i in
    if v land 1 = 0 then acc := !acc + v else acc := !acc lxor (v * 31);
    Array.unsafe_set scratch i (v + 1)
  done;
  !acc

let ref_rounds = 2

(* The reference's duration at a quiet moment of the box it was tuned on;
   any fixed value works, it only sets the scale. *)
let ref_nominal_s = 0.004
let chunk_s = 0.1

let reference () =
  let round () =
    Gc.minor ();
    let t = now () in
    ignore (Sys.opaque_identity (alloc_unit ()));
    let t1 = now () in
    ignore (Sys.opaque_identity (compute_unit ()));
    now () -. t1 +. (t1 -. t)
  in
  ignore (round ());
  let total = ref 0. in
  for _ = 1 to ref_rounds do
    total := !total +. round ()
  done;
  !total

(* -- samples --------------------------------------------------------------- *)

(* Verdict latencies in ms; the current chunk's are rescaled when it ends. *)
let lat = ref (Array.make 4096 0.)
let nlat = ref 0

let push_lat ms =
  if !nlat = Array.length !lat then begin
    let a = Array.make (2 * !nlat) 0. in
    Array.blit !lat 0 a 0 !nlat;
    lat := a
  end;
  !lat.(!nlat) <- ms;
  incr nlat

let attempted = ref 0
let failed = ref 0
let errors : string list ref = ref []

let note_error s = if List.length !errors < 8 then errors := s :: !errors

(* [fail n] records [n] failed operations; [check_failed] a failed check
   that is not an operation of its own. *)
let fail n fmt =
  Printf.ksprintf
    (fun s ->
      failed := !failed + n;
      note_error s)
    fmt

let check_failed fmt = Printf.ksprintf note_error fmt

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

(* Totals over the timed chunks, in reference seconds, plus the raw wall
   time that bounds the run and the reference's slowdowns. *)
let setup_s = ref 0.
let timed_s = ref 0.
let cpu_ref_s = ref 0.
let raw_s = ref 0.
let slowdowns : float list ref = ref []
let last_ref = ref ref_nominal_s

(* Set-up ends when the first timed chunk is about to start: spawn to here,
   scaled by the first reference measurement. *)
let start_timed () =
  let t = now () in
  last_ref := reference ();
  slowdowns := [ !last_ref /. ref_nominal_s ];
  setup_s := (t -. !spawn_time) *. ref_nominal_s /. !last_ref

let time_left () = !raw_s < !seconds

(* [chunk f] runs one timed chunk [f ()] and books it. *)
let chunk f =
  let first = !nlat in
  let cpu0 = cpu_s () in
  let t0 = now () in
  f ();
  let d = now () -. t0 in
  let cpu = cpu_s () -. cpu0 in
  let r = reference () in
  let measured = (!last_ref +. r) /. 2. in
  last_ref := r;
  let scale = ref_nominal_s /. measured in
  slowdowns := (measured /. ref_nominal_s) :: !slowdowns;
  for i = first to !nlat - 1 do
    !lat.(i) <- !lat.(i) *. scale
  done;
  raw_s := !raw_s +. d;
  timed_s := !timed_s +. (d *. scale);
  cpu_ref_s := !cpu_ref_s +. (cpu *. scale)

(* Per-verdict phase time from report.metrics, summed over the traced
   loop; [self_ns] is pipeline wall time outside every phase. *)
let phase_ns = Array.make Metrics.nphases 0
let self_ns = ref 0
let metered = ref 0

let crashed (r : Octopocs.report) =
  match r.verdict with
  | Octopocs.Failure msg ->
      let pre p = String.length msg >= String.length p && String.sub msg 0 (String.length p) = p in
      pre "worker crashed" || pre "worker stalled"
  | _ -> false

(* One settled verdict: latency since admission, annotation check, and (in
   the traced loop) its per-phase metrics.  Returns the settle time. *)
let settle ~t_admit ~label ~expected (r : Octopocs.report) =
  let t = now () in
  push_lat ((t -. t_admit) *. 1000.);
  incr attempted;
  let cls = Octopocs.verdict_class r.verdict in
  (match expected with
  | Some want when cls <> want -> fail 1 "%s: class %s, annotated %s" label cls want
  | _ -> if crashed r then fail 1 "%s: %s" label cls);
  (match r.metrics with
  | Some m ->
      incr metered;
      let in_phases = ref 0 in
      List.iter
        (fun p ->
          let ns = Metrics.phase_total_ns m p in
          let i = Metrics.phase_index p in
          phase_ns.(i) <- phase_ns.(i) + ns;
          in_phases := !in_phases + ns)
        Metrics.all_phases;
      self_ns := !self_ns + max 0 (int_of_float (r.elapsed_s *. 1e9) - !in_phases)
  | None -> ());
  t

(* -- the timed workloads ---------------------------------------------------- *)

let peak_in_flight = ref 0
let deferrals = ref 0

let note_stream (st : Octopocs.stream_stats) =
  peak_in_flight := max !peak_in_flight st.st_peak_in_flight;
  deferrals := !deferrals + st.st_deferrals;
  if st.st_quarantined > 0 then begin
    attempted := !attempted + st.st_quarantined;
    fail st.st_quarantined "%d pair(s) quarantined" st.st_quarantined
  end

let registry_items () =
  List.map
    (fun (c : Registry.case) ->
      (string_of_int c.idx, c.s, c.t, c.poc, None, Some (Registry.expected_to_string c.expected)))
    Registry.all

let job_of (label, s, t, poc, ell, _) = Octopocs.job ?ell ~label ~s ~t ~poc ()

let run_registry () =
  let items = registry_items () in
  let jobs = List.map job_of items in
  let expected = Hashtbl.create 16 in
  List.iter (fun (l, _, _, _, _, e) -> Hashtbl.replace expected l e) items;
  (* Untimed pass: fills the compile, ℓ and CFG caches; counted in setup. *)
  ignore (Octopocs.run_all ~jobs:1 jobs);
  start_timed ();
  peak_in_flight := 1;
  (* One pass per chunk, whole passes only: pair 3 is most of a pass, so a
     cut pass would bias the rate by where the cut fell. *)
  while time_left () do
    chunk (fun () ->
        let prev = ref (now ()) in
        ignore
          (Octopocs.run_all ~jobs:1
             ~on_settle:(fun label r ->
               prev := settle ~t_admit:!prev ~label ~expected:(Hashtbl.find expected label) r)
             jobs))
  done

let run_corpus ~isolate =
  let src = Source.generated ~seed:!seed ~count:max_int () in
  let path = Filename.concat !work_dir (Printf.sprintf "corpus-%d.jrnl" (Unix.getpid ())) in
  let w = Journal.create ~fsync:false ~path () in
  let admitted : (string, float * string * string option) Hashtbl.t = Hashtbl.create 16 in
  let config = Octopocs.default_config in
  let on_settle j r =
    let label = Octopocs.job_label j in
    let t_admit, key, expected = Hashtbl.find admitted label in
    Hashtbl.remove admitted label;
    Journal.append w (Octopocs.encode_result ~label ~key r);
    ignore (settle ~t_admit ~label ~expected r)
  in
  let on_quarantine (q : Octopocs.quarantine) = Hashtbl.remove admitted q.Octopocs.qlabel in
  let window = match isolate with Octopocs.Processes -> Some !nproc | Octopocs.Domains -> None in
  start_timed ();
  (* Each chunk streams pairs for [chunk_s] and drains, so the reference
     runs with no child alive. *)
  while time_left () do
    chunk (fun () ->
        let stop = now () +. chunk_s in
        let next () =
          let t_pull = now () in
          if t_pull >= stop then None
          else
            match Source.next src with
            | None -> None
            | Some p ->
                let key =
                  Octopocs.content_key ~config ~s:p.Source.ps ~t:p.Source.pt ~poc:p.Source.ppoc ()
                in
                Hashtbl.replace admitted p.Source.plabel (t_pull, key, p.Source.pexpected);
                Some
                  (Octopocs.job ~label:p.Source.plabel ~s:p.Source.ps ~t:p.Source.pt
                     ~poc:p.Source.ppoc ())
        in
        note_stream
          (Octopocs.run_stream ~config ~jobs:1 ?window ~isolate ~on_settle ~on_quarantine next))
  done;
  Journal.close w;
  Sys.remove path

(* Pass [i] of segment [k] scans gen:60 under a seed derived from the run's
   seed, so the segments of a run scan different corpora. *)
let scan_corpus ~seed =
  let probes, targets = Scan.of_source (Source.generated ~seed ~count:scan_pairs ()) in
  (probes, targets @ Scan.decoy_targets ~seed:decoy_seed ~count:n_decoys)

let pass_seed i = (!seed * 1_000_003) + (!segment * 1000) + i

(* Verification jobs for confirmed candidates, built as the CLI's scan
   does: a diagonal candidate runs under its pair label with the pipeline's
   own ℓ and carries the pair's annotation; a cross candidate runs as
   "S~T" with the detector's ℓ. *)
let candidate_items probes targets (r : Scan.result) =
  let probe_tbl = Hashtbl.create 64 and target_tbl = Hashtbl.create 64 in
  List.iter (fun (p : Scan.probe) -> Hashtbl.replace probe_tbl p.pr_label p) probes;
  List.iter (fun (t : Scan.target) -> Hashtbl.replace target_tbl t.tg_label t) targets;
  let seen = Hashtbl.create 256 in
  List.filter_map
    (fun (c : Detect.candidate) ->
      let pk = (c.c_s_label, c.c_t_label) in
      if Hashtbl.mem seen pk then None
      else begin
        Hashtbl.replace seen pk ();
        let pr : Scan.probe = Hashtbl.find probe_tbl c.c_s_label in
        let tg : Scan.target = Hashtbl.find target_tbl c.c_t_label in
        let diagonal = c.c_s_label = c.c_t_label in
        let label = if diagonal then c.c_s_label else c.c_s_label ^ "~" ^ c.c_t_label in
        Some
          ( label,
            pr.pr_s,
            tg.tg_prog,
            pr.pr_poc,
            (if diagonal then None else Some c.c_ell),
            if diagonal then pr.pr_expected else None )
      end)
    r.candidates

let check_scan (r : Scan.result) =
  let fp = List.length r.candidates - r.n_tp and missed = List.length r.gt - r.n_tp in
  if fp > 0 then fail fp "scan precision %.3f: %d false-positive candidate(s)" (Scan.precision r) fp;
  if missed > 0 then begin
    attempted := !attempted + missed;
    fail missed "scan recall %.3f: %d positive(s) missed" (Scan.recall r) missed
  end

let run_scan () =
  let corpus = ref (scan_corpus ~seed:(pass_seed 0)) in
  start_timed ();
  (* Whole passes, detection then verification of every candidate, in
     chunks: candidates over time is unbiased only when no pass is cut.
     Generating the next corpus is not timed. *)
  let pass = ref 0 in
  while time_left () do
    if !pass > 0 then corpus := scan_corpus ~seed:(pass_seed !pass);
    incr pass;
    let probes, targets = !corpus in
    let r = ref None in
    chunk (fun () -> r := Some (Scan.run ~probes ~targets ~n_decoys ()));
    let r = Option.get !r in
    check_scan r;
    let rest = ref (candidate_items probes targets r) in
    let meta = Hashtbl.create 256 in
    let on_settle j r =
      let label = Octopocs.job_label j in
      let t_admit, expected = Hashtbl.find meta label in
      ignore (settle ~t_admit ~label ~expected r)
    in
    while (match !rest with [] -> false | _ :: _ -> true) do
      chunk (fun () ->
          let stop = now () +. chunk_s in
          let next () =
            match !rest with
            | ((label, _, _, _, _, expected) as it) :: tl when now () < stop ->
                rest := tl;
                Hashtbl.replace meta label (now (), expected);
                Some (job_of it)
            | _ -> None
          in
          note_stream (Octopocs.run_stream ~jobs:1 ~on_settle next))
    done
  done

(* -- traced probe: spans around the public calls into each layer ----------- *)

let layers : (string * float) list ref = ref []
let det : (string * int) list ref = ref []
let pair_counts : (string * int) list ref = ref []
let layer k v = layers := (k, v) :: !layers
let count k v = det := (k, v) :: !det

(* [span acc f] runs [f], adding its wall time (seconds) to [acc]. *)
let span acc f =
  let t = now () in
  let v = f () in
  acc := !acc +. (now () -. t);
  v

let per_us acc n = if n = 0 then 0. else !acc *. 1e6 /. float_of_int n

(* Pulls, keys, compilation, ℓ, the pipeline's work counters, the codec and
   the journal, over a fixed prefix of the workload's own pairs. *)
let probe_pairs ~(pull : unit -> Source.t) ~npull items =
  let t_pull = ref 0. in
  let src = pull () in
  let pulled = ref 0 in
  while !pulled < npull && Option.is_some (span t_pull (fun () -> Source.next src)) do
    incr pulled
  done;
  layer "targets.pull_us" (per_us t_pull !pulled);
  let t_key = ref 0. and t_compile = ref 0. and t_ell = ref 0. in
  let t_encode = ref 0. and t_decode = ref 0. and t_append = ref 0. and t_replay = ref 0. in
  let steps = ref 0 and forked = ref 0 and retries = ref 0 and nodes = ref 0 in
  let adds = ref 0 and bunches = ref 0 and rungs = ref 0 and bytes = ref 0 in
  let path = Filename.concat !work_dir (Printf.sprintf "probe-%d.jrnl" (Unix.getpid ())) in
  let w = Journal.create ~fsync:false ~path () in
  let n = List.length items in
  List.iter
    (fun (label, s, t, poc, ell, expected) ->
      let key = span t_key (fun () -> Octopocs.content_key ?ell ~s ~t ~poc ()) in
      span t_compile (fun () -> ignore (Compile.compile s); ignore (Compile.compile t));
      span t_ell (fun () -> ignore (Clone.shared_functions s t));
      let r = Octopocs.run ?ell ~s ~t ~poc () in
      (match expected with
      | Some want when Octopocs.verdict_class r.verdict <> want ->
          check_failed "probe %s: class %s, annotated %s" label
            (Octopocs.verdict_class r.verdict) want
      | _ -> ());
      (match r.metrics with
      | Some m ->
          let c = Metrics.counter_value m in
          steps := !steps + c Metrics.Vm_steps;
          forked := !forked + c Metrics.Symex_states_forked;
          nodes := !nodes + c Metrics.Solver_nodes;
          adds := !adds + c Metrics.Constraint_adds;
          List.iter
            (fun (ctr, k) -> pair_counts := (Printf.sprintf "p%s_%s" label k, c ctr) :: !pair_counts)
            [
              (Metrics.Vm_steps, "vm_steps");
              (Metrics.Solver_nodes, "solver_nodes");
              (Metrics.Constraint_adds, "constraint_adds");
              (Metrics.Symex_states_forked, "states_forked");
              (Metrics.Symex_states_pruned, "states_pruned");
            ]
      | None -> ());
      (match r.symex with Some st -> retries := !retries + st.loop_retries | None -> ());
      bunches := !bunches + List.length r.bunches;
      rungs := !rungs + List.length r.degradations;
      (* The record as an untraced run journals it: no metrics tail. *)
      let plain = { r with metrics = None; provenance = None } in
      let payload = span t_encode (fun () -> Octopocs.encode_result ~label ~key plain) in
      bytes := !bytes + String.length payload;
      span t_append (fun () -> Journal.append w payload))
    items;
  Journal.close w;
  let decoded =
    span t_replay (fun () ->
        let rp = Journal.replay path in
        List.length
          (List.filter_map (fun p -> span t_decode (fun () -> Octopocs.decode_result p)) rp.records))
  in
  Sys.remove path;
  if decoded <> n then check_failed "journal replay decoded %d of %d record(s)" decoded n;
  layer "core.content_key_us" (per_us t_key n);
  layer "vm.compile_us" (per_us t_compile (2 * n));
  layer "clone.ell_us" (per_us t_ell n);
  layer "codec.encode_us" (per_us t_encode n);
  layer "codec.decode_us" (per_us t_decode n);
  layer "journal.append_us" (per_us t_append n);
  layer "journal.replay_us" (per_us t_replay n);
  count "vm.steps" !steps;
  count "symex.states_forked" !forked;
  count "symex.loop_retries" !retries;
  count "solver.nodes" !nodes;
  count "solver.constraint_adds" !adds;
  count "taint.bunches" !bunches;
  count "core.ladder_rungs" !rungs;
  count "journal.record_bytes" !bytes

(* Scan.run's detection loop with a span around every index add, query and
   confirmation; its hit and confirmation counts must equal Scan.run's. *)
let probe_detect ~(pull : unit -> Source.t) =
  let t_mat = ref 0. in
  let probes, targets = span t_mat (fun () -> Scan.of_source (pull ())) in
  let targets = targets @ Scan.decoy_targets ~seed:decoy_seed ~count:n_decoys in
  layer "targets.materialize_ms" (!t_mat *. 1000.);
  let params = Detect.default_params in
  let t_add = ref 0. and t_query = ref 0. and t_confirm = ref 0. in
  let ix = Detect.index_create params in
  let tprog = Hashtbl.create 64 in
  List.iter
    (fun (tg : Scan.target) ->
      span t_add (fun () -> Detect.index_add ix ~label:tg.tg_label tg.tg_prog);
      Hashtbl.replace tprog tg.tg_label (tg.tg_prog, Compile.program_digest tg.tg_prog))
    targets;
  let hits = ref 0 and confirmed = ref 0 in
  List.iter
    (fun (pr : Scan.probe) ->
      let sdig = Compile.program_digest pr.pr_s in
      let crash = Detect.s_crash pr.pr_s ~poc:pr.pr_poc in
      let vf = Isa.func_exn pr.pr_s pr.pr_vuln in
      let hs = span t_query (fun () -> Detect.query ix vf) in
      hits := !hits + List.length hs;
      List.iter
        (fun (h : Detect.hit) ->
          let t, tdig = Hashtbl.find tprog h.h_label in
          match
            span t_confirm (fun () ->
                Detect.confirm params ~sdig ~tdig ~s:pr.pr_s ~s_label:pr.pr_label ~t
                  ~t_label:h.h_label ~vuln_func:pr.pr_vuln ~s_crash:crash h)
          with
          | Some _ -> incr confirmed
          | None -> ())
        hs)
    probes;
  let r = Scan.run ~probes ~targets ~n_decoys () in
  if r.n_retrieved <> !hits || List.length r.candidates <> !confirmed then
    check_failed "detect probe: %d hit(s) / %d confirmed, Scan.run %d / %d" !hits !confirmed
      r.n_retrieved (List.length r.candidates);
  layer "clone.index_add_us" (per_us t_add (List.length targets));
  layer "clone.query_us" (per_us t_query (List.length probes));
  layer "clone.confirm_us" (per_us t_confirm !hits);
  layer "clone.confirm_ratio"
    (if !hits = 0 then 0. else float_of_int !confirmed /. float_of_int !hits);
  count "clone.hits" !hits;
  count "clone.confirmed" !confirmed;
  (probes, targets, r)

let take n l = List.filteri (fun i _ -> i < n) l

(* Fork round trip of a no-op child, and the peak RSS of children that
   each verify one pair. *)
let probe_sandbox items =
  let rtt =
    List.init 21 (fun _ ->
        let t = now () in
        ignore (Sandbox.run_child (fun () -> ""));
        now () -. t)
    |> List.sort compare
  in
  layer "sandbox.fork_rtt_us" (List.nth rtt 10 *. 1e6);
  let maxrss =
    List.fold_left
      (fun acc (label, s, t, poc, ell, _) ->
        let _, kb =
          Sandbox.run_child (fun () ->
              Octopocs.encode_result ~label ~key:"" (Octopocs.run ?ell ~s ~t ~poc ()))
        in
        max acc kb)
      0 (take 3 items)
  in
  layer "sandbox.child_maxrss_mb" (float_of_int maxrss /. 1024.)

let gen_items n =
  let src = Source.generated ~seed:!seed ~count:n () in
  let rec go acc =
    match Source.next src with
    | None -> List.rev acc
    | Some p ->
        go
          (( p.Source.plabel,
             p.Source.ps,
             p.Source.pt,
             p.Source.ppoc,
             None,
             p.Source.pexpected )
          :: acc)
  in
  go []

let probe () =
  Metrics.enable ();
  let gen n () = Source.generated ~seed:!seed ~count:n () in
  let items =
    match !workload with
    | "registry" ->
        probe_pairs ~pull:Source.registry ~npull:15 (registry_items ());
        ignore (probe_detect ~pull:Source.registry);
        registry_items ()
    | "scan" ->
        let probes, targets, r = probe_detect ~pull:(gen scan_pairs) in
        let items = take prefix_pairs (candidate_items probes targets r) in
        probe_pairs ~pull:(gen scan_pairs) ~npull:scan_pairs items;
        items
    | _ ->
        let items = gen_items prefix_pairs in
        probe_pairs ~pull:(gen prefix_pairs) ~npull:prefix_pairs items;
        ignore (probe_detect ~pull:(gen detect_probe_pairs));
        items
  in
  probe_sandbox items

(* -- output ----------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e -> Buffer.add_string b "?"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields = "{" ^ String.concat "," fields ^ "}"
let field k v = json_string k ^ ":" ^ v
let num f = Printf.sprintf "%.9g" f

(* VmHWM: this process's resident-set high-water mark, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME registry|corpus|corpus-proc|scan");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--segment", Arg.Set_int segment, "K segment index within the run");
      ("--seconds", Arg.Set_float seconds, "S timed seconds");
      ("--trace", Arg.Int (fun t -> traced := t = 1), "0|1 traced run");
      ("--spawn-time", Arg.Set_float spawn_time, "T epoch seconds at spawn");
      ("--nproc", Arg.Set_int nproc, "N live-children cap for corpus-proc");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload NAME [options]";
  if !spawn_time = 0.0 then spawn_time := now ();
  if !traced then Metrics.enable ();
  let retries_before = Metrics.counter_value (Metrics.aggregate ()) Metrics.Pool_retries in
  let main =
    match !workload with
    | "registry" -> run_registry
    | "corpus" -> fun () -> run_corpus ~isolate:Octopocs.Domains
    | "corpus-proc" -> fun () -> run_corpus ~isolate:Octopocs.Processes
    | "scan" -> run_scan
    | w ->
        prerr_endline ("harness: unknown workload " ^ w);
        exit 2
  in
  main ();
  let retries = Metrics.counter_value (Metrics.aggregate ()) Metrics.Pool_retries - retries_before in
  let rss = peak_rss_mb () in
  if !traced then probe ();
  let slow = List.sort compare !slowdowns in
  print_string
    (json_obj
       [
         field "workload" (json_string !workload);
         field "traced" (if !traced then "1" else "0");
         field "setup_s" (num !setup_s);
         field "timed_s" (num !timed_s);
         field "cpu_s" (num !cpu_ref_s);
         field "rss_mb" (num rss);
         field "attempted" (string_of_int !attempted);
         field "failed" (string_of_int !failed);
         field "errors" ("[" ^ String.concat "," (List.rev_map json_string !errors) ^ "]");
         field "lat_ms"
           ("["
           ^ String.concat "," (List.init !nlat (fun i -> Printf.sprintf "%.6g" !lat.(i)))
           ^ "]");
         field "ocaml" (json_string Sys.ocaml_version);
         field "slowdown" (num (List.nth slow (List.length slow / 2)));
         field "layers"
           (json_obj
              ((if !metered = 0 then []
                else
                  let per i = float_of_int phase_ns.(i) /. 1e3 /. float_of_int !metered in
                  let ph p = per (Metrics.phase_index p) in
                  [
                    field "taint.us" (num (ph Metrics.Taint));
                    field "cfg.us" (num (ph Metrics.Cfg));
                    field "symex.us" (num (ph Metrics.Symex));
                    field "solver.us" (num (ph Metrics.Solve));
                    field "core.combine_us" (num (ph Metrics.Combine));
                    field "vm.verify_us" (num (ph Metrics.Verify));
                    field "core.self_us"
                      (num (float_of_int !self_ns /. 1e3 /. float_of_int !metered));
                  ])
              @ [
                  field "stream.peak_in_flight" (string_of_int !peak_in_flight);
                  field "stream.deferrals" (string_of_int !deferrals);
                  field "pool.retries" (string_of_int retries);
                ]
              @ List.rev_map (fun (k, v) -> field k (num v)) !layers));
         field "det" (json_obj (List.rev_map (fun (k, v) -> field k (string_of_int v)) !det));
         field "pairs"
           (json_obj (List.rev_map (fun (k, v) -> field k (string_of_int v)) !pair_counts));
       ]);
  print_newline ()
