(* Benchmark harness: regenerates every table of the paper's evaluation
   (§V).  Run with no arguments for everything, or with a subset of
   [table2 table3 table4 table5 micro] to select.

   - Table II : verification results of OCTOPOCS on the 15 pairs
   - Table III: context-aware vs context-free taint analysis (pairs 1-9)
   - Table IV : naive vs directed symbolic execution (pairs 7-9)
   - Table V  : AFLFast / AFLGo / OCTOPOCS elapsed time (pairs 7-9)
   - micro    : Bechamel micro-benchmarks, one per table's core operation
   - chaos    : resilience harness — the 15-pair batch under N seeded
                fault-injection schedules (only when named explicitly;
                options: --schedules N, --chaos-seed S) *)

module Registry = Octo_targets.Registry
module Taint = Octo_taint.Taint
module Naive = Octo_symex.Naive
module Directed = Octo_symex.Directed
module Cfg = Octo_cfg.Cfg
module Clone = Octo_clone.Clone
module Aflfast = Octo_fuzz.Aflfast
module Aflgo = Octo_fuzz.Aflgo
module F = Octo_formats.Formats
module B = Octo_util.Bytes_util
module Faultinject = Octo_util.Faultinject

let say fmt = Format.printf (fmt ^^ "@.")
let hr () = say "%s" (String.make 78 '-')

let alloc_mb f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. before) /. 1_048_576.)

(* ------------------------------------------------------------------ *)

let table2 () =
  say "";
  say "TABLE II: Vulnerability verification results of OCTOPOCS";
  hr ();
  say "%-4s %-22s %-22s %-20s %-8s %-5s %-6s %-9s" "Idx" "S" "T" "Vuln ID" "CWE" "poc'"
    "Verif" "Type";
  hr ();
  let matches = ref 0 in
  List.iter
    (fun (c : Registry.case) ->
      let r = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
      let poc_gen = match r.verdict with Octopocs.Triggered _ -> "O" | _ -> "X" in
      let verified =
        match r.verdict with
        | Octopocs.Failure _ -> "X"
        | Octopocs.Triggered _ | Octopocs.Not_triggerable _ -> "O"
      in
      let cls = Octopocs.verdict_class r.verdict in
      let expected = Registry.expected_to_string c.expected in
      if cls = expected then incr matches;
      say "%-4d %-22s %-22s %-20s %-8s %-5s %-6s %-9s %s" c.idx
        (Printf.sprintf "%s %s" c.s.pname c.s_version)
        (Printf.sprintf "%s %s" c.t.pname c.t_version)
        c.vuln_id c.cwe poc_gen verified cls
        (if cls = expected then "" else Printf.sprintf "(paper: %s)" expected))
    Registry.all;
  hr ();
  say "paper: 6 Type-I, 3 Type-II, 5 Type-III, 1 Failure; ours match %d/15" !matches

(* ------------------------------------------------------------------ *)

let table3 () =
  say "";
  say "TABLE III: Effectiveness of context-aware taint analysis (pairs 1-9)";
  hr ();
  say "%-4s %-22s %-22s %-14s %-14s" "Idx" "S" "T" "Plain taint" "Context-aware";
  hr ();
  let verdict_mark (r : Octopocs.report) =
    match r.verdict with Octopocs.Triggered _ -> "O" | _ -> "X"
  in
  List.iter
    (fun (c : Registry.case) ->
      let plain =
        Octopocs.run
          ~config:{ Octopocs.default_config with taint_mode = Taint.Plain }
          ~s:c.s ~t:c.t ~poc:c.poc ()
      in
      let aware = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
      say "%-4d %-22s %-22s %-14s %-14s" c.idx c.s.pname c.t.pname (verdict_mark plain)
        (verdict_mark aware))
    Registry.table3_cases;
  hr ();
  say "paper: plain taint fails (X) on Idx 3, 4, 9; context-aware succeeds on all"

(* ------------------------------------------------------------------ *)

let symex_ep (c : Registry.case) = c.vuln_func

let table4 () =
  say "";
  say "TABLE IV: Effectiveness of directed symbolic execution (reach ep)";
  hr ();
  say "%-14s %-16s | %-22s %-10s | %-10s %-10s" "S" "T" "SE time(s)" "SE MB" "D-SE t(s)"
    "D-SE MB";
  hr ();
  List.iter
    (fun (c : Registry.case) ->
      let ep = symex_ep c in
      let t0 = Unix.gettimeofday () in
      let (naive_out, _), naive_mb = alloc_mb (fun () -> Naive.run c.t ~ep) in
      let naive_t = Unix.gettimeofday () -. t0 in
      let naive_cell =
        match naive_out with
        | Naive.Reached _ -> Printf.sprintf "%.3f" naive_t
        | Naive.Mem_error n -> Printf.sprintf "MemError(%d states)" n
        | Naive.Exhausted -> "N/A(dead)"
        | Naive.Step_limit -> "N/A(steps)"
      in
      let naive_mem_cell =
        match naive_out with
        | Naive.Mem_error _ -> "MemError"
        | _ -> Printf.sprintf "%.1f" naive_mb
      in
      let cfg = Cfg.build c.t ~ep in
      let t1 = Unix.gettimeofday () in
      let (dir_out, _stats), dir_mb =
        alloc_mb (fun () -> Directed.run c.t ~ep ~cfg ~ledger:() ~on_ep:Directed.stop_at_first)
      in
      let dir_t = Unix.gettimeofday () -. t1 in
      let dir_cell =
        match dir_out with
        | Directed.Reached _ -> Printf.sprintf "%.4f" dir_t
        | Directed.Failed f -> Fmt.str "failed(%a)" Directed.pp_failure f
      in
      say "%-14s %-16s | %-22s %-10s | %-10s %-10.2f" c.s.pname c.t.pname naive_cell
        naive_mem_cell dir_cell dir_mb)
    Registry.table45_cases;
  hr ();
  say "paper shape: naive SE succeeds only on opj_dump, MemErrors on MuPDF and";
  say "gif2png; directed SE succeeds on all three, opj_dump < MuPDF < gif2png"

(* ------------------------------------------------------------------ *)

(* Fuzzer seed corpora: the smallest file each T accepts, plus the original
   PoC (which T typically rejects) — standard minimal-valid seeding. *)
let fuzz_seeds (c : Registry.case) =
  let minimal =
    match c.t.pname with
    | "opj_dump_211" -> F.Mj2k.raw_file []
    | "mupdf" ->
        (* magic, version byte, empty hint table, end object *)
        B.concat [ F.Mpdf.magic; B.of_int_list [ 0x00; 0x00 ]; B.of_int_list [ F.Mpdf.o_end ] ]
    | "gif2png_strict" ->
        (* The version check and palette checksum force 32 palette
           entries; grayscale entries are 2 bytes each. *)
        let palette = B.concat (List.init 32 (fun _ -> B.of_int_list [ 0x00; 0x77 ])) in
        B.concat
          [
            F.Mgif.magic; "87a"; B.of_int_list [ 32 ]; palette;
            B.of_int_list [ F.Mgif.b_trailer ];
          ]
    | _ -> c.poc
  in
  [ minimal; c.poc ]

let table5 ?(budget = 120_000) () =
  say "";
  say "TABLE V: Elapsed time for verifying the propagated vulnerability";
  say "(fuzzer budget: %d execs, standing in for the paper's 20 h)" budget;
  hr ();
  say "%-14s %-16s | %-18s %-18s %-12s" "S" "T" "AFLFast" "AFLGo" "OCTOPOCS";
  hr ();
  List.iter
    (fun (c : Registry.case) ->
      let ell = Clone.ell_names (Clone.shared_functions c.s c.t) in
      let seeds = fuzz_seeds c in
      let fast =
        let r =
          Aflfast.run ~config:{ Aflfast.default_config with max_execs = budget } c.t ~seeds
            ~crash_in:ell
        in
        match r.crash_input with
        | Some _ -> Printf.sprintf "%.1fs (%d ex)" r.elapsed_s r.execs
        | None -> Printf.sprintf "N/A (%d ex)" r.execs
      in
      let go =
        match
          Aflgo.run ~config:{ Aflgo.default_config with max_execs = budget } c.t
            ~target:(symex_ep c) ~seeds ~crash_in:ell
        with
        | r -> (
            match r.crash_input with
            | Some _ -> Printf.sprintf "%.1fs (%d ex)" r.elapsed_s r.execs
            | None -> Printf.sprintf "N/A (%d ex)" r.execs)
        | exception Aflgo.Aflgo_error _ -> "Error"
      in
      let octo =
        let r = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
        match r.verdict with
        | Octopocs.Triggered _ -> Printf.sprintf "%.2fs" r.elapsed_s
        | _ -> "failed"
      in
      say "%-14s %-16s | %-18s %-18s %-12s" c.s.pname c.t.pname fast go octo)
    Registry.table45_cases;
  hr ();
  say "paper shape: OCTOPOCS verifies all three; AFLFast verifies only gif2png";
  say "within budget; AFLGo errors on MuPDF and verifies none"

(* ------------------------------------------------------------------ *)

(* Ablations beyond the paper's tables, for the design choices DESIGN.md
   calls out. *)

let ablations () =
  say "";
  say "ABLATION A: taint granularity (paper §IV-A's byte-level choice)";
  hr ();
  say "%-4s %-16s %-18s | %-22s %-22s" "Idx" "S" "T" "Byte-level taint" "Word-level taint";
  hr ();
  List.iter
    (fun idx ->
      let c = Registry.find idx in
      let cell g =
        let config = { Octopocs.default_config with taint_granularity = g } in
        let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
        match r.verdict with
        | Octopocs.Triggered { poc'; _ } -> Printf.sprintf "O (%d-byte poc')" (String.length poc')
        | Octopocs.Not_triggerable _ -> "X (reported safe)"
        | Octopocs.Failure _ -> "X (failed)"
      in
      say "%-4d %-16s %-18s | %-22s %-22s" c.idx c.s.pname c.t.pname (cell Taint.Byte_level)
        (cell Taint.Word_level))
    [ 1; 5; 7; 8; 9 ];
  hr ();
  say "observed: word-level taint over-approximates — bunches drag in aligned";
  say "neighbour bytes and every poc' grows accordingly; byte-level taint (the";
  say "paper's §IV-A choice) keeps the primitives minimal";
  say "";
  say "ABLATION B: loop-state iteration cap θ (paper §IV-B sets θ = 120)";
  hr ();
  say "%-8s %-12s %-10s %-14s" "theta" "verdict" "runs" "loop retries";
  hr ();
  let c = Registry.find 9 in
  List.iter
    (fun theta ->
      let config =
        { Octopocs.default_config with
          symex = { Octo_symex.Directed.default_config with theta } }
      in
      let r = Octopocs.run ~config ~s:c.s ~t:c.t ~poc:c.poc () in
      let runs, retries =
        match r.symex with Some s -> (s.runs, s.loop_retries) | None -> (0, 0)
      in
      say "%-8d %-12s %-10d %-14d" theta (Octopocs.verdict_class r.verdict) runs retries)
    [ 4; 16; 31; 32; 64; 120 ];
  hr ();
  say "expected: gif2png_strict needs exactly 32 loop iterations, so any";
  say "theta >= 32 verifies and smaller caps give up";
  say "";
  say "ABLATION C: static vs dynamic CFG on the Failure pair (paper §V-B";
  say "predicts Idx-15 verifies once the CFG defect is fixed)";
  hr ();
  let c15 = Registry.find 15 in
  let static_r = Octopocs.run ~s:c15.s ~t:c15.t ~poc:c15.poc () in
  say "static CFG (paper's setup) : %s" (Fmt.str "%a" Octopocs.pp_verdict static_r.verdict);
  let dyn_r =
    Octopocs.run
      ~config:{ Octopocs.default_config with dynamic_cfg = true }
      ~s:c15.s ~t:c15.t ~poc:c15.poc ()
  in
  say "dynamic CFG + devirt       : %s" (Fmt.str "%a" Octopocs.pp_verdict dyn_r.verdict);
  hr ()

(* ------------------------------------------------------------------ *)

let micro () =
  say "";
  say "Bechamel micro-benchmarks (core operation of each table)";
  let open Bechamel in
  let open Toolkit in
  let c1 = Registry.find 1 in
  let c7 = Registry.find 7 in
  let tests =
    [
      Test.make ~name:"table2:pipeline-pair1"
        (Staged.stage (fun () -> ignore (Octopocs.run ~s:c1.s ~t:c1.t ~poc:c1.poc ())));
      Test.make ~name:"table3:taint-extraction"
        (Staged.stage (fun () -> ignore (Taint.extract c1.s ~poc:c1.poc ~ep:c1.vuln_func)));
      Test.make ~name:"table4:directed-symex-pair7"
        (Staged.stage (fun () ->
             let cfg = Cfg.build_cached c7.t ~ep:c7.vuln_func in
             ignore
               (Directed.run c7.t ~ep:c7.vuln_func ~cfg ~ledger:()
                  ~on_ep:Directed.stop_at_first)));
      Test.make ~name:"table5:fuzz-500-execs"
        (Staged.stage (fun () ->
             ignore
               (Aflfast.run
                  ~config:{ Aflfast.default_config with max_execs = 500 }
                  c7.t ~seeds:(fuzz_seeds c7) ~crash_in:[ c7.vuln_func ])));
    ]
  in
  let benchmark test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
    let instance = Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> say "  %-32s %14.1f ns/run" name est
        | _ -> say "  %-32s (no estimate)" name)
      results
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)

(* Machine-readable solver/engine benchmark: emits BENCH_solver.json so the
   perf trajectory survives across PRs.  The "seed" block holds the numbers
   measured on the pre-overhaul engine (assoc-list store, full
   re-propagation, copy-per-candidate search, serial runner) on the same
   workloads; "current" is re-measured on every run. *)

module Solve = Octo_solver.Solve
module Expr = Octo_solver.Expr

let time_ns ?(reps = 1) n f =
  (* Best of [reps] timing runs of [n] iterations, in ns/iteration. *)
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let per = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n in
    if per < !best then best := per
  done;
  !best

(* Workloads match the ones used to record the seed numbers. *)
let bench_add () =
  (* 128 adds over 64 variables: the store shape of a long parser path. *)
  time_ns ~reps:3 200 (fun () ->
      let s = Solve.create () in
      for i = 0 to 63 do
        ignore (Solve.add s { Expr.rel = Octo_vm.Isa.Le; lhs = Expr.byte i; rhs = Expr.const (255 - i) });
        ignore (Solve.add s { Expr.rel = Octo_vm.Isa.Ge; lhs = Expr.byte i; rhs = Expr.const 1 })
      done)
  /. 128.

let bench_propagate () =
  (* One extra add against an already-populated 128-constraint store:
     isolates incremental propagation cost. *)
  let base = Solve.create () in
  for i = 0 to 63 do
    ignore (Solve.add base { Expr.rel = Octo_vm.Isa.Le; lhs = Expr.byte i; rhs = Expr.const (255 - i) });
    ignore (Solve.add base { Expr.rel = Octo_vm.Isa.Ge; lhs = Expr.byte i; rhs = Expr.const 1 })
  done;
  time_ns ~reps:3 500 (fun () ->
      let s = Solve.copy base in
      Solve.add s { Expr.rel = Octo_vm.Isa.Lt; lhs = Expr.byte 32; rhs = Expr.const 100 })

let bench_solve () =
  time_ns ~reps:3 50 (fun () ->
      let s = Solve.create () in
      let w = Expr.bin Octo_vm.Isa.Or (Expr.byte 0) (Expr.bin Octo_vm.Isa.Shl (Expr.byte 1) (Expr.const 8)) in
      ignore (Solve.add s { Expr.rel = Octo_vm.Isa.Eq; lhs = w; rhs = Expr.const 0x8000 });
      for i = 2 to 17 do
        ignore (Solve.add s { Expr.rel = Octo_vm.Isa.Ge; lhs = Expr.byte i; rhs = Expr.const 200 })
      done;
      Solve.solve s)

let bench_pipeline_pair1 () =
  let c1 = Registry.find 1 in
  time_ns ~reps:3 200 (fun () -> Octopocs.run ~s:c1.s ~t:c1.t ~poc:c1.poc ())

let bench_directed_pair7 () =
  let c7 = Registry.find 7 in
  time_ns ~reps:3 500 (fun () ->
      let cfg = Cfg.build_cached c7.t ~ep:c7.vuln_func in
      Directed.run c7.t ~ep:c7.vuln_func ~cfg ~ledger:() ~on_ep:Directed.stop_at_first)

let bench_table2 ~jobs =
  let batch =
    List.map
      (fun (c : Registry.case) ->
        Octopocs.job ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ())
      Registry.all
  in
  (* Repeat the 15-pair batch to stabilise the wall-clock measurement. *)
  let reps = 8 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Octopocs.run_all ~jobs batch))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* Numbers measured on the seed engine (commit 8c76129) with the workloads
   above, on the reference container.  Kept verbatim so speedups are always
   reported against the same baseline. *)
let seed_numbers =
  [
    ("solver_add_ns", 157565.0);
    ("solver_propagate_ns", 157565.0);  (* seed add == full re-propagation *)
    ("solver_solve_ns", 2458301.0);
    ("table2_pipeline_pair1_ns", 638173.0);
    ("table4_directed_symex_pair7_ns", 44283.8);
    ("table2_serial_s", 0.202);
  ]

let bench_json () =
  say "";
  say "Engine benchmark (machine-readable -> BENCH_solver.json)";
  hr ();
  let current =
    [
      ("solver_add_ns", bench_add ());
      ("solver_propagate_ns", bench_propagate ());
      ("solver_solve_ns", bench_solve ());
      ("table2_pipeline_pair1_ns", bench_pipeline_pair1 ());
      ("table4_directed_symex_pair7_ns", bench_directed_pair7 ());
    ]
  in
  let serial_s = bench_table2 ~jobs:1 in
  let cores = Domain.recommended_domain_count () in
  let eff = Octo_util.Pool.effective_jobs 4 in
  (* On a single-core machine the pool clamps --jobs to 1, so a "parallel"
     run would measure clamping overhead, not speedup: skip it and record
     why, rather than publishing a meaningless ~1.0x number. *)
  let parallel_s = if cores < 2 then None else Some (bench_table2 ~jobs:4) in
  let current =
    current
    @ [ ("table2_serial_s", serial_s) ]
    @ (match parallel_s with Some p -> [ ("table2_parallel4_s", p) ] | None -> [])
    @ [ ("cores", float_of_int cores); ("effective_jobs_of_4", float_of_int eff) ]
  in
  List.iter (fun (k, v) -> say "  %-34s %14.1f" k v) current;
  (match parallel_s with
  | Some p -> say "  %-34s %14.2fx" "parallel_speedup_4j" (serial_s /. p)
  | None ->
      say "  %-34s %14s" "parallel_speedup_4j" "skipped";
      say "  (single-core machine: the pool clamps --jobs to 1, so the";
      say "   parallel run would measure clamping overhead, not speedup)");
  (* With --trace the bench process has metrics collection on: entries
     carry a per-phase breakdown of one pipeline-pair1 run, so the JSON
     answers "where did the time go" and not just "how much". *)
  let phase_block =
    if not (Octo_util.Metrics.is_on ()) then []
    else begin
      let c1 = Registry.find 1 in
      let _, snap =
        Octo_util.Metrics.scoped (fun () -> Octopocs.run ~s:c1.s ~t:c1.t ~poc:c1.poc ())
      in
      match snap with
      | None -> []
      | Some m ->
          let fields =
            List.map
              (fun p ->
                Printf.sprintf "    \"%s_ns\": %d" (Octo_util.Metrics.phase_name p)
                  (Octo_util.Metrics.phase_total_ns m p))
              Octo_util.Metrics.all_phases
          in
          [ "  \"phases_pipeline_pair1\": {"; String.concat ",\n" fields; "  }," ]
    end
  in
  let field (k, v) = Printf.sprintf "    %S: %.1f" k v in
  let speedups =
    List.filter_map
      (fun (k, seed) ->
        match List.assoc_opt k current with
        | Some cur when cur > 0. -> Some (Printf.sprintf "    %S: %.2f" k (seed /. cur))
        | _ -> None)
      seed_numbers
  in
  let json =
    String.concat "\n"
      ([ "{"; "  \"schema\": \"octopocs-bench-solver/1\"," ]
      @ phase_block
      @ [ "  \"seed\": {" ]
      @ [ String.concat ",\n" (List.map field seed_numbers) ]
      @ [ "  },"; "  \"current\": {" ]
      @ [ String.concat ",\n" (List.map field current) ]
      @ [ "  },"; "  \"speedup_vs_seed\": {" ]
      @ [ String.concat ",\n" speedups ]
      @ [ "  }," ]
      @ (match parallel_s with
        | Some p -> [ Printf.sprintf "  \"parallel_speedup_4j\": %.2f" (serial_s /. p) ]
        | None ->
            [
              "  \"parallel_speedup_4j\": null,";
              "  \"parallel_skipped_reason\": \"single-core machine (pool clamps --jobs to 1)\"";
            ])
      @ [ "}"; "" ])
  in
  let oc = open_out "BENCH_solver.json" in
  output_string oc json;
  close_out oc;
  say "wrote BENCH_solver.json"

(* ------------------------------------------------------------------ *)

(* Perf-history ledger + regression gate.

   [bench] appends one flat JSON line per run to BENCH_history.jsonl: the
   per-pair DETERMINISTIC work counters (vm steps, solver nodes, constraint
   adds, states forked/pruned — pure functions of the pair and the default
   config, identical on any machine) plus wall-clock timings (machine-
   dependent, recorded for trend-reading only).

   [gate] re-measures the deterministic counters and compares them against
   the LAST committed entry: any counter more than 10% above its baseline
   fails the gate (exit 1).  Timings are printed but never gate — CI
   machines are too noisy for wall-clock assertions, while the counters
   catch real regressions (a solver that suddenly visits 2x the nodes)
   bit-exactly. *)

module Metrics = Octo_util.Metrics

let history_path = "BENCH_history.jsonl"

(* The deterministic counters and their flat-key suffixes. *)
let history_counters =
  [
    (Metrics.Vm_steps, "vm_steps");
    (Metrics.Solver_nodes, "solver_nodes");
    (Metrics.Constraint_adds, "constraint_adds");
    (Metrics.Symex_states_forked, "states_forked");
    (Metrics.Symex_states_pruned, "states_pruned");
  ]

(* Run the 15 pairs serially with metrics on; every report carries its own
   per-pair counter delta.  Returns (deterministic fields, timing fields),
   keys flat like "p7_solver_nodes" / "p7_elapsed_ms". *)
let history_fields () =
  let was_on = Metrics.is_on () in
  if not was_on then Metrics.enable ();
  let t0 = Unix.gettimeofday () in
  let rows =
    List.map
      (fun (c : Registry.case) -> (c.idx, Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc ()))
      Registry.all
  in
  let total_s = Unix.gettimeofday () -. t0 in
  if not was_on then Metrics.disable ();
  let det =
    List.concat_map
      (fun (idx, (r : Octopocs.report)) ->
        match r.metrics with
        | None -> []
        | Some m ->
            List.map
              (fun (c, key) ->
                (Printf.sprintf "p%d_%s" idx key, float_of_int (Metrics.counter_value m c)))
              history_counters)
      rows
  in
  let timings =
    List.map
      (fun (idx, (r : Octopocs.report)) ->
        (Printf.sprintf "p%d_elapsed_ms" idx, r.elapsed_s *. 1000.))
      rows
    @ [ ("total_elapsed_s", total_s) ]
  in
  (det, timings)

(* Scan-detection counters: a detection-only clone scan over the gen:40:42
   corpus plus 3 seeded decoys.  Retrieval, confirmation and ground-truth
   tallies are pure functions of (seed, params) — identical on any
   machine — so they gate alongside the per-pair counters.  The elapsed
   time rides along as a non-gating timing. *)
let scan_history_keys =
  [ "scan_retrieved"; "scan_confirmed"; "scan_rejected"; "scan_gt"; "scan_tp"; "scan_postings" ]

let scan_history_fields () =
  let module Scan = Octo_targets.Scan in
  let t0 = Unix.gettimeofday () in
  let src = Octo_targets.Source.generated ~seed:42 ~count:40 () in
  let probes, targets = Scan.of_source src in
  let n_decoys = 3 in
  let targets = targets @ Scan.decoy_targets ~seed:7 ~count:n_decoys in
  let r = Scan.run ~probes ~targets ~n_decoys () in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let det =
    [
      ("scan_retrieved", float_of_int r.Scan.n_retrieved);
      ("scan_confirmed", float_of_int (List.length r.Scan.candidates));
      ("scan_rejected", float_of_int r.Scan.n_rejected);
      ("scan_gt", float_of_int (List.length r.Scan.gt));
      ("scan_tp", float_of_int r.Scan.n_tp);
      ("scan_postings", float_of_int r.Scan.index_postings);
    ]
  in
  let pairs = r.Scan.n_probes * r.Scan.n_targets in
  say "scan: gen:40:42 + %d decoys — %d probe-target pairs, %d confirmed of %d retrieved in %.0f ms (%.0f pairs/s)"
    n_decoys pairs (List.length r.Scan.candidates) r.Scan.n_retrieved ms
    (float_of_int pairs /. Float.max (ms /. 1000.) 1e-9);
  (det, [ ("scan_elapsed_ms", ms) ])

let bench_history () =
  say "";
  say "Perf history (deterministic counters + timings -> %s)" history_path;
  hr ();
  let det, timings = history_fields () in
  let sdet, stimings = scan_history_fields () in
  let det = det @ sdet and timings = timings @ stimings in
  let field (k, v) =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%S: %.0f" k v
    else Printf.sprintf "%S: %.3f" k v
  in
  let line =
    "{" ^ String.concat ", " (List.map field (det @ timings)) ^ "}"
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 history_path in
  output_string oc (line ^ "\n");
  close_out oc;
  say "appended %d deterministic counters + %d timings to %s" (List.length det)
    (List.length timings) history_path

(* Hand-rolled flat-object scanner ("key": number pairs) — the container has
   no JSON library and the history lines are flat by construction. *)
let parse_history_line (s : string) : (string * float) list =
  let n = String.length s in
  let fields = ref [] in
  let i = ref 0 in
  (try
     while !i < n do
       while !i < n && s.[!i] <> '"' do incr i done;
       if !i >= n then raise Exit;
       let k0 = !i + 1 in
       let j = ref k0 in
       while !j < n && s.[!j] <> '"' do incr j done;
       if !j >= n then raise Exit;
       let key = String.sub s k0 (!j - k0) in
       i := !j + 1;
       while !i < n && (s.[!i] = ':' || s.[!i] = ' ') do incr i done;
       let v0 = !i in
       let num = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
       while !i < n && num s.[!i] do incr i done;
       if !i > v0 then
         match float_of_string_opt (String.sub s v0 (!i - v0)) with
         | Some v -> fields := (key, v) :: !fields
         | None -> ()
     done
   with Exit -> ());
  List.rev !fields

let last_history_line path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let last = ref None in
    (try
       while true do
         let l = input_line ic in
         if String.trim l <> "" then last := Some l
       done
     with End_of_file -> ());
    close_in ic;
    !last
  end

let is_deterministic_key k =
  List.mem k scan_history_keys
  || List.exists
       (fun (_, suffix) ->
         let sl = String.length suffix and kl = String.length k in
         kl > sl && String.sub k (kl - sl) sl = suffix)
       history_counters

(* Telemetry must not move the pipeline: pair 1's deterministic counter
   deltas have to be identical with the sampler off and on (enabled into
   a throwaway journal), and the disabled [tick] must stay at its
   documented one-Atomic.get budget.  Counter diffs count as gate
   regressions. *)
module Telemetry = Octo_util.Telemetry

let telemetry_overhead_gate () =
  let counters_of () =
    let was_on = Metrics.is_on () in
    if not was_on then Metrics.enable ();
    let c1 = Registry.find 1 in
    let r = Octopocs.run ~s:c1.s ~t:c1.t ~poc:c1.poc () in
    if not was_on then Metrics.disable ();
    match r.Octopocs.metrics with
    | None -> []
    | Some m -> List.map (fun (c, k) -> (k, Metrics.counter_value m c)) history_counters
  in
  let off = counters_of () in
  let path = Filename.temp_file "octo_bench_telemetry" ".jrnl" in
  Telemetry.enable ~path ();
  let on = counters_of () in
  Telemetry.disable ();
  (try Sys.remove path with Sys_error _ -> ());
  let diffs = List.filter (fun (k, v) -> List.assoc_opt k on <> Some v) off in
  List.iter
    (fun (k, v) ->
      say "  REGRESSION telemetry perturbs %s: %d (disabled) vs %s (enabled)" k v
        (match List.assoc_opt k on with Some v' -> string_of_int v' | None -> "-"))
    diffs;
  let n = 1_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    Telemetry.tick (fun () -> assert false)
  done;
  let per_ns = (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9 in
  say "gate: telemetry disabled tick %.1f ns/call; pair-1 counters %s under sampling"
    per_ns
    (if diffs = [] then "unchanged" else "PERTURBED");
  List.length diffs

(* Returns the number of regressions (CI fails on > 0). *)
let bench_gate () =
  say "";
  say "Perf-regression gate (deterministic counters vs last %s entry)" history_path;
  hr ();
  match last_history_line history_path with
  | None ->
      (* A missing baseline is a bootstrap state, not a regression: record
         one now so the next gate run has something to compare against,
         and tell the operator exactly what to do with it. *)
      say "gate: no baseline in %s — recording one now; commit %s to arm the gate"
        history_path history_path;
      bench_history ();
      telemetry_overhead_gate ()
  | Some line ->
      let baseline = List.filter (fun (k, _) -> is_deterministic_key k) (parse_history_line line) in
      if baseline = [] then begin
        say "gate: last %s entry carries no deterministic counters" history_path;
        1
      end
      else begin
        let det, timings = history_fields () in
        let sdet, stimings = scan_history_fields () in
        let det = det @ sdet and timings = timings @ stimings in
        let regressions = ref 0 in
        let improved = ref 0 and unchanged = ref 0 and fresh = ref 0 in
        List.iter
          (fun (k, cur) ->
            match List.assoc_opt k baseline with
            | None -> incr fresh
            | Some base ->
                if cur > (base *. 1.10) +. 1e-9 then begin
                  incr regressions;
                  say "  REGRESSION %-24s %10.0f vs baseline %10.0f (+%.1f%% > 10%%)" k cur
                    base (((cur /. Float.max base 1.) -. 1.) *. 100.)
                end
                else if cur < base then incr improved
                else incr unchanged)
          det;
        List.iter
          (fun (k, _base) ->
            if not (List.mem_assoc k det) then
              say "  note: baseline counter %s no longer measured" k)
          baseline;
        say "gate: %d counters checked — %d regression(s), %d improved, %d unchanged, %d new"
          (List.length det) !regressions !improved !unchanged !fresh;
        (match List.assoc_opt "total_elapsed_s" timings with
        | Some t -> say "gate: total elapsed %.3fs (timings are non-gating)" t
        | None -> ());
        !regressions + telemetry_overhead_gate ()
      end

(* ------------------------------------------------------------------ *)

(* Chaos harness: run the full 15-pair batch under [schedules] seeded
   fault-injection schedules.  Every schedule gets one derived seed; every
   pair gets one independent injector derived from that seed and the pair
   index, so the fault pattern is a pure function of (master seed, schedule,
   pair) — in particular it does not depend on which worker domain picks up
   which job.  Each schedule is run twice on fresh injectors and the two
   verdict tables must agree byte-for-byte; any incomplete batch, label
   disorder or divergence counts as a violation.

   On top of the replay check, every schedule exercises the durable run
   layer: the batch is run once journaled end-to-end (the reference), then
   again interrupted after K pairs — the journal's own torn-write fault
   site armed, plus raw garbage appended to simulate dying mid-frame — and
   resumed.  The resumed journal must decode to exactly the reference's
   verdict set (poc' bytes and degradation rungs included). *)

module Journal = Octo_util.Journal
module Source = Octo_targets.Source

(* Corpus-scale chaos: stream a generated corpus through the sharded run
   layer with the worker-crash site armed hot enough to push pairs past
   the retry budget, and prove three properties the ISSUE-level batch
   cannot: (1) two identical streamed runs agree byte-for-byte on the
   merged verdict table AND the quarantine set; (2) a run killed after K
   pairs — with torn tails planted on several shards at once — resumes to
   exactly the uninterrupted run's merged state; (3) the in-flight window
   bound holds.  Returns the violation count. *)
let chaos_corpus ~seed () =
  say "";
  say "CHAOS corpus: sharded streaming run (4 shards), kill/resume + quarantine";
  hr ();
  let violations = ref 0 in
  let violate fmt = Printf.ksprintf (fun m -> incr violations; say "  VIOLATION: %s" m) fmt in
  let count = 60 and shards = 4 and jobs = 4 and retries = 1 in
  let poison = 0.3 in
  let config_of label =
    let inject =
      Faultinject.create ~rate:0.0
        ~site_rates:[ (Faultinject.Worker_crash, poison) ]
        ~seed:(Faultinject.seed_for ~seed label) ()
    in
    { Octopocs.default_config with inject; deadline_s = Some 30.0 }
  in
  let with_dir f =
    let dir = Filename.temp_file "octochaos-corpus" ".d" in
    Sys.remove dir;
    let rec rm p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
    in
    Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)
  in
  let qpath_of dir = Filename.concat dir "quarantine.jrnl" in
  (* One streamed run over the corpus prefix [0, upto): settled verdicts
     into the shard their key routes to, exhausted pairs into the
     quarantine journal.  [resume] skips pairs already settled or
     quarantined in [dir].  Fresh injectors per call — determinism is
     seed-to-verdicts, never object reuse. *)
  let run_streamed ~dir ~resume ~upto () =
    let w, skip =
      if resume then begin
        let w, recovered = Journal.Sharded.open_resume ~dir ~shards () in
        ( w,
          Array.to_list recovered |> List.concat
          |> List.filter_map Octopocs.decode_result
          |> List.map (fun (l, _, _) -> l) )
      end
      else (Journal.Sharded.create ~dir ~shards (), [])
    in
    let qw, qrecords = Journal.open_resume ~path:(qpath_of dir) () in
    let skip = skip @ List.filter_map
        (fun p -> Option.map (fun q -> q.Octopocs.qlabel) (Octopocs.decode_quarantine p))
        qrecords
    in
    let skipset = Hashtbl.create 31 in
    List.iter (fun l -> Hashtbl.replace skipset l ()) skip;
    let src = Source.generated ~seed ~count:upto () in
    let lock = Mutex.create () in
    let keys = Hashtbl.create 64 in
    let rec next () =
      match Source.next src with
      | None -> None
      | Some p ->
          if Hashtbl.mem skipset p.Source.plabel then next ()
          else begin
            let config = config_of p.Source.plabel in
            let key =
              Octopocs.content_key ~config ~s:p.Source.ps ~t:p.Source.pt ~poc:p.Source.ppoc ()
            in
            Mutex.lock lock;
            Hashtbl.replace keys p.Source.plabel key;
            Mutex.unlock lock;
            Some
              (Octopocs.job ~config ~label:p.Source.plabel ~s:p.Source.ps ~t:p.Source.pt
                 ~poc:p.Source.ppoc ())
          end
    in
    let on_settle j r =
      let label = Octopocs.job_label j in
      Mutex.lock lock;
      let key = Option.value (Hashtbl.find_opt keys label) ~default:"-" in
      Mutex.unlock lock;
      Journal.Sharded.append w ~key (Octopocs.encode_result ~label ~key r)
    in
    let on_quarantine q = Journal.append qw (Octopocs.encode_quarantine q) in
    let st = Octopocs.run_stream ~jobs ~retries ~on_settle ~on_quarantine next in
    Journal.Sharded.close w;
    Journal.close qw;
    st
  in
  (* The run-independent state of a corpus directory: merged settled
     verdicts (poc' bytes and rungs included) plus the quarantine set. *)
  let table dir =
    let m = Journal.Sharded.replay_merged dir in
    let verdicts =
      List.filter_map Octopocs.decode_result m.Journal.Sharded.mrecords
      |> List.map (fun (l, _, (r : Octopocs.report)) -> (l, r.verdict, r.degradations))
      |> List.sort compare
    in
    let quars =
      let qp = qpath_of dir in
      if not (Sys.file_exists qp) then []
      else
        List.filter_map Octopocs.decode_quarantine (Journal.replay qp).Journal.records
        |> List.map (fun q -> Octopocs.(q.qlabel, q.qreason, q.qattempts))
        |> List.sort compare
    in
    (verdicts, quars)
  in
  let reference =
    with_dir (fun dira ->
        let sta = run_streamed ~dir:dira ~resume:false ~upto:count () in
        let bound = max 4 (2 * Octo_util.Pool.effective_jobs jobs) in
        if sta.Octopocs.st_peak_in_flight > bound then
          violate "corpus: peak in-flight %d exceeds window bound %d"
            sta.Octopocs.st_peak_in_flight bound;
        let ta = table dira in
        if List.length (fst ta) + List.length (snd ta) <> count then
          violate "corpus: %d settled + %d quarantined != %d pairs"
            (List.length (fst ta)) (List.length (snd ta)) count;
        ta)
  in
  with_dir (fun dirb ->
      ignore (run_streamed ~dir:dirb ~resume:false ~upto:count ());
      if table dirb <> reference then
        violate "corpus: verdicts differ between identical streamed replays");
  with_dir (fun dirc ->
      (* Kill after K pairs, then die mid-frame on two shards at once. *)
      let k = 23 in
      ignore (run_streamed ~dir:dirc ~resume:false ~upto:k ());
      List.iter
        (fun i ->
          let oc =
            open_out_gen [ Open_append; Open_binary ] 0o644 (Journal.Sharded.shard_path dirc i)
          in
          output_string oc "\x40\x00\x00\x00\x99\x99\x99\x99AB";
          close_out oc)
        [ 0; 2 ];
      let m = Journal.Sharded.replay_merged dirc in
      if m.Journal.Sharded.mtorn < 2 then
        violate "corpus: expected >= 2 torn shard tails, found %d" m.Journal.Sharded.mtorn;
      ignore (run_streamed ~dir:dirc ~resume:true ~upto:count ());
      if table dirc <> reference then
        violate "corpus: resumed sharded run differs from uninterrupted run");
  say "corpus: %d pairs, %d quarantined, x2 replays + multi-shard kill/resume, %d violation(s)"
    count
    (List.length (snd reference))
    !violations;
  !violations

let chaos ~schedules ~seed () =
  say "";
  say "CHAOS: 15-pair batch under deterministic fault injection";
  say "(%d schedule(s), master seed %d, sites: vm-syscall solver-budget" schedules seed;
  say " worker-crash deadline-expiry worker-stall journal-write;";
  say " 4 worker domains, 1 retry, 30s deadline, 0.25s injected stall)";
  hr ();
  let npairs = List.length Registry.all in
  let violations = ref 0 in
  let violate fmt = Printf.ksprintf (fun m -> incr violations; say "  VIOLATION: %s" m) fmt in
  (* Decode a journal into its run-independent verdict table: label,
     structural verdict (poc' bytes included) and degradation rungs, sorted
     by pair index.  elapsed_s is the only report field left out. *)
  let decode_table path =
    let r = Journal.replay path in
    List.filter_map Octopocs.decode_result r.Journal.records
    |> List.map (fun (label, _key, (rep : Octopocs.report)) ->
           (label, rep.verdict, rep.degradations))
    |> List.sort (fun (a, _, _) (b, _, _) ->
           compare (int_of_string a) (int_of_string b))
  in
  for sched = 0 to schedules - 1 do
    let sched_seed = seed + (sched * 7919) in
    (* Injector streams are mutable and advance as sites draw, so every
       repetition needs a fresh batch: determinism is seed-to-verdicts, not
       object-reuse. *)
    let job_of (c : Registry.case) =
      let inject =
        Faultinject.create ~rate:0.0
          ~site_rates:
            [
              (Faultinject.Vm_syscall, 0.0005);
              (Faultinject.Solver_budget, 0.05);
              (Faultinject.Worker_crash, 0.05);
              (Faultinject.Deadline_expiry, 0.02);
              (Faultinject.Worker_stall, 0.01);
            ]
          ~seed:(sched_seed lxor (c.idx * 0x9E3779B9)) ()
      in
      let config = { Octopocs.default_config with inject; deadline_s = Some 30.0 } in
      Octopocs.job ~config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ()
    in
    let fresh_batch ?(only = fun _ -> true) () =
      List.filter_map
        (fun (c : Registry.case) -> if only c then Some (job_of c) else None)
        Registry.all
    in
    let run_batch ?on_settle batch =
      Octopocs.run_all ~jobs:4 ~retries:1 ?on_settle batch
    in
    let snapshot () =
      run_batch (fresh_batch ())
      |> List.map (fun (label, (r : Octopocs.report)) ->
             (label, Octopocs.verdict_class r.verdict, r.degradations))
    in
    let a = snapshot () in
    let b = snapshot () in
    if List.length a <> npairs then
      violate "schedule %d: %d/%d reports returned" sched (List.length a) npairs;
    List.iteri
      (fun i (label, _, _) ->
        let want = string_of_int (i + 1) in
        if label <> want then
          violate "schedule %d: report %d labelled %s (want %s)" sched i label want)
      a;
    if a <> b then violate "schedule %d: verdicts differ between identical replays" sched;
    (* Kill-mid-batch -> resume determinism.  Reference: the same schedule
       journaled uninterrupted. *)
    let journal_settle w label r =
      try Journal.append w (Octopocs.encode_result ~label ~key:"-" r)
      with Faultinject.Injected _ -> ()
      (* the armed torn-write site firing IS the simulated crash *)
    in
    let ref_path = Filename.temp_file "octochaos-ref" ".jrnl" in
    let wref = Journal.create ~path:ref_path () in
    ignore (run_batch ~on_settle:(journal_settle wref) (fresh_batch ()));
    Journal.close wref;
    (* Interrupted run: only the first K pairs get to settle, the journal
       writer has the journal-write torn-append site armed, and the file
       gains a trailing half-frame (a length prefix promising 64 bytes that
       never arrived) — dying mid-append, modelled twice over. *)
    let k = 1 + (sched mod (npairs - 1)) in
    let res_path = Filename.temp_file "octochaos-res" ".jrnl" in
    let winject =
      Faultinject.create ~rate:0.0
        ~site_rates:[ (Faultinject.Journal_write, 0.15) ]
        ~seed:(sched_seed lxor 0x6A09E667) ()
    in
    let w1 = Journal.create ~inject:winject ~path:res_path () in
    ignore
      (run_batch ~on_settle:(journal_settle w1)
         (fresh_batch ~only:(fun c -> c.idx <= k) ()));
    Journal.close w1;
    let oc = open_out_gen [ Open_append; Open_binary ] 0o644 res_path in
    output_string oc "\x40\x00\x00\x00\x99\x99\x99\x99AB";
    close_out oc;
    if not (Journal.replay res_path).Journal.torn then
      violate "schedule %d: torn tail not detected before resume" sched;
    (* Resume: recover the settled prefix, re-run only the rest (on fresh
       per-pair injectors — fault schedules are per pair, so the re-run
       pairs replay their uninterrupted fault pattern exactly). *)
    let w2, records = Journal.open_resume ~path:res_path () in
    let settled =
      List.filter_map Octopocs.decode_result records |> List.map (fun (l, _, _) -> l)
    in
    ignore
      (run_batch ~on_settle:(journal_settle w2)
         (fresh_batch ~only:(fun c -> not (List.mem (string_of_int c.idx) settled)) ()));
    Journal.close w2;
    let ra = decode_table ref_path and rb = decode_table res_path in
    if List.length ra <> npairs then
      violate "schedule %d: reference journal decodes %d/%d pairs" sched (List.length ra)
        npairs;
    if ra <> rb then
      violate "schedule %d: resumed journal verdicts differ from uninterrupted run" sched;
    Sys.remove ref_path;
    Sys.remove res_path;
    let cell (label, cls, degr) =
      let short =
        match cls with
        | "Type-I" -> "I"
        | "Type-II" -> "II"
        | "Type-III" -> "III"
        | _ -> "F"
      in
      Printf.sprintf "%s:%s%s" label short (if degr = [] then "" else "+")
    in
    say "schedule %2d (seed %11d, resume after %2d): %s" sched sched_seed k
      (String.concat " " (List.map cell a))
  done;
  hr ();
  say "legend: pair:<class>, '+' = degradation rung(s) climbed, F = Failure";
  say "chaos: %d schedule(s) x2 replays + journaled kill/resume, %d violation(s)" schedules
    !violations;
  !violations

(* Sandbox chaos: the process-isolation layer under seeded child deaths.
   Phase A — Domain and process isolation agree pair-for-pair on the
   15-pair registry (same structural verdicts, poc' bytes included, same
   degradation rungs): the journal-dump identity the CLI promises for
   [--isolate proc].  Phase B — a seeded schedule of real child deaths
   (SIGSEGV / SIGKILL drawn pre-fork from the child-segv and
   child-oom-kill sites) double-replays identically: same settled table,
   same quarantine set.  Must run FIRST among the chaos phases, with its
   process runs before its domain run: OCaml 5.1 forbids [Unix.fork]
   permanently once any domain has ever been spawned in the process, so
   every fork must precede the first domain. *)
let chaos_sandbox ~seed () =
  say "";
  say "CHAOS sandbox: process isolation (fork + rlimit + pipe protocol)";
  say "(phase A: domain vs process verdict identity over %d pairs;"
    (List.length Registry.all);
  say " phase B: seeded child SIGSEGV/OOM-kill schedule x2 replays, 1 retry)";
  hr ();
  let npairs = List.length Registry.all in
  let violations = ref 0 in
  let violate fmt = Printf.ksprintf (fun m -> incr violations; say "  VIOLATION: %s" m) fmt in
  (* Phase A: clean configs, batch API, both isolation modes.  The process
     run MUST precede the domain run (fork-before-first-domain). *)
  let clean_job (c : Registry.case) =
    let config = { Octopocs.default_config with deadline_s = Some 30.0 } in
    Octopocs.job ~config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ()
  in
  let batch_table results =
    List.map
      (fun (label, (r : Octopocs.report)) -> (label, r.Octopocs.verdict, r.degradations))
      results
    |> List.sort compare
  in
  let prc =
    batch_table
      (Octopocs.run_all ~jobs:4 ~isolate:Octopocs.Processes
         (List.map clean_job Registry.all))
  in
  (* Phase B: every pair streams through the process supervisor with the
     child-death sites armed.  The die is drawn in the parent before each
     fork, so retries advance the per-pair stream deterministically; fresh
     injectors per run — determinism is seed-to-verdicts, never object
     reuse. *)
  let death_rates =
    [ (Faultinject.Child_segv, 0.35); (Faultinject.Child_oom_kill, 0.25) ]
  in
  let death_inject (c : Registry.case) =
    Faultinject.create ~rate:0.0 ~site_rates:death_rates
      ~seed:(seed lxor (c.idx * 0x9E3779B9)) ()
  in
  (* The die schedule is parent-drawn and scheduling-independent, so the
     expected deaths and the exact quarantine set are computable in
     advance by replaying each pair's injector stream the way the
     scheduler draws it (segv first, oom only if segv did not fire; one
     such draw pair per attempt, 1 retry). *)
  let predicted_deaths = ref 0 in
  let predicted_quars =
    List.filter_map
      (fun (c : Registry.case) ->
        let inject = death_inject c in
        let die () =
          if Faultinject.fire inject Faultinject.Child_segv then `Segv
          else if Faultinject.fire inject Faultinject.Child_oom_kill then `Oom
          else `None
        in
        match die () with
        | `None -> None
        | _ -> (
            incr predicted_deaths;
            match die () with
            | `None -> None
            | d2 ->
                incr predicted_deaths;
                let reason, message =
                  match d2 with
                  | `Oom -> ("oom", "child out of memory: SIGKILL (kernel OOM killer)")
                  | _ -> ("worker crashed", "child segfaulted (SIGSEGV)")
                in
                Some (string_of_int c.idx, reason, message, 2)))
      Registry.all
    |> List.sort compare
  in
  let death_run () =
    let job_of (c : Registry.case) =
      let config =
        { Octopocs.default_config with inject = death_inject c; deadline_s = Some 30.0 }
      in
      Octopocs.job ~config ~label:(string_of_int c.idx) ~s:c.s ~t:c.t ~poc:c.poc ()
    in
    let pending = ref (List.map job_of Registry.all) in
    let next () =
      match !pending with [] -> None | j :: rest -> pending := rest; Some j
    in
    let settled = ref [] and quars = ref [] in
    let on_settle j (r : Octopocs.report) =
      settled := (Octopocs.job_label j, r.Octopocs.verdict, r.degradations) :: !settled
    in
    let on_quarantine (q : Octopocs.quarantine) =
      quars := Octopocs.(q.qlabel, q.qreason, q.qmessage, q.qattempts) :: !quars
    in
    let st =
      Octopocs.run_stream ~jobs:4 ~retries:1 ~isolate:Octopocs.Processes ~on_settle
        ~on_quarantine next
    in
    (st, List.sort compare !settled, List.sort compare !quars)
  in
  let sta, seta, qa = death_run () in
  let _stb, setb, qb = death_run () in
  (* Phase A's domain half runs only now: the first Domain.spawn forecloses
     every later fork, so it must come after the last process run. *)
  let dom = batch_table (Octopocs.run_all ~jobs:4 (List.map clean_job Registry.all)) in
  if List.length dom <> npairs then
    violate "sandbox: domain run returned %d/%d reports" (List.length dom) npairs;
  if List.length prc <> npairs then
    violate "sandbox: process run returned %d/%d reports" (List.length prc) npairs;
  if dom <> prc then
    violate "sandbox: process-isolated verdicts differ from domain-mode verdicts";
  say "phase A: domain vs process tables %s over %d pairs"
    (if dom = prc then "identical" else "DIFFER")
    npairs;
  if sta.Octopocs.st_pulled <> npairs then
    violate "sandbox: pulled %d/%d pairs" sta.Octopocs.st_pulled npairs;
  if List.length seta + List.length qa <> npairs then
    violate "sandbox: %d settled + %d quarantined != %d pairs" (List.length seta)
      (List.length qa) npairs;
  if seta <> setb then
    violate "sandbox: settled verdicts differ between identical child-death replays";
  if qa <> qb then
    violate "sandbox: quarantine sets differ between identical child-death replays";
  if !predicted_deaths = 0 then
    violate "sandbox: seed %d predicts no child deaths; the phase is vacuous" seed;
  if qa <> predicted_quars then
    violate "sandbox: quarantine set differs from the pre-drawn die schedule (%d vs %d)"
      (List.length qa) (List.length predicted_quars);
  List.iter
    (fun (l, reason, _, attempts) ->
      say "  quarantined pair %s (%s) after %d attempts" l reason attempts)
    qa;
  say "phase B: %d predicted child death(s); %d settled, %d quarantined, x2 replays %s"
    !predicted_deaths (List.length seta) (List.length qa)
    (if seta = setb && qa = qb then "identical" else "DIFFER");
  say "sandbox: %d violation(s)" !violations;
  !violations

(* ------------------------------------------------------------------ *)

let () =
  let valued = [ "--schedules"; "--chaos-seed"; "--trace" ] in
  let rec split_opts modes opts = function
    | [] -> (List.rev modes, List.rev opts)
    | [ k ] when List.mem k valued -> failwith ("missing value for option " ^ k)
    | k :: v :: _ when List.mem k valued && List.mem v valued ->
        failwith ("missing value for option " ^ k)
    | k :: v :: rest when List.mem k valued -> split_opts modes ((k, v) :: opts) rest
    | a :: rest -> split_opts (a :: modes) opts rest
  in
  let args, opts = split_opts [] [] (List.tl (Array.to_list Sys.argv)) in
  let opt k d =
    match List.assoc_opt k opts with Some v -> int_of_string v | None -> d
  in
  (* --trace PATH: emit phase spans for everything the selected modes run,
     and switch metrics collection on so bench entries carry phase
     breakdowns. *)
  (match List.assoc_opt "--trace" opts with
  | Some path ->
      Octo_util.Trace.enable ~path;
      Octo_util.Metrics.enable ()
  | None -> ());
  let want name = args = [] || List.mem name args in
  if want "table2" then table2 ();
  if want "table3" then table3 ();
  if want "table4" then table4 ();
  if want "table5" then table5 ();
  if want "ablations" then ablations ();
  if want "micro" then micro ();
  if List.mem "bench" args then begin
    bench_json ();
    bench_history ()
  end;
  let gate_regressions = if List.mem "gate" args then bench_gate () else 0 in
  let chaos_violations =
    if List.mem "chaos" args then begin
      (* sandbox phase first: OCaml 5.1 permanently forbids Unix.fork once
         any domain has ever been spawned, so its forks must precede the
         domain-pool phases *)
      let v = chaos_sandbox ~seed:(opt "--chaos-seed" 42) () in
      let v = v + chaos ~schedules:(opt "--schedules" 8) ~seed:(opt "--chaos-seed" 42) () in
      v + chaos_corpus ~seed:(opt "--chaos-seed" 42) ()
    end
    else 0
  in
  Octo_util.Trace.disable ();
  say "";
  say "done.";
  if chaos_violations > 0 || gate_regressions > 0 then exit 1
