(* Lock-free per-domain metrics registry.

   Counters and per-phase latency histograms are recorded into
   domain-local cells (one flat record of int arrays per domain,
   allocated on first use through [Domain.DLS]).  The hot path is a
   single [Atomic.get] on the global enable flag plus plain array
   stores into the caller's own cell — no locks, no cross-domain
   contention.  The only mutex in the module guards the registry list,
   touched once per domain (cell creation) and on aggregation.

   Collection is disabled by default; every recording entry point
   checks [is_on] first so an instrumented-but-idle build costs one
   atomic load per call site.  Hooks in the pipeline are placed at
   run-end granularity (e.g. VM steps are added once per [Interp.run],
   not per instruction) so even the enabled cost is negligible.

   Snapshots are plain records of fresh int arrays, safe to persist
   ([write_snapshot] puts one in each journaled verdict) and to diff: a scoped
   measurement is just [current () ] before and after, subtracted.

   Cells persist for the lifetime of their domain, so [aggregate]
   returns process-lifetime totals; callers wanting a per-batch view
   capture a snapshot before the batch and [diff] afterwards. *)

(* -- phases ------------------------------------------------------------ *)

type phase = Taint | Cfg | Symex | Solve | Combine | Verify

let nphases = 6
let all_phases = [ Taint; Cfg; Symex; Solve; Combine; Verify ]

let phase_index = function
  | Taint -> 0
  | Cfg -> 1
  | Symex -> 2
  | Solve -> 3
  | Combine -> 4
  | Verify -> 5

let phase_name = function
  | Taint -> "taint"
  | Cfg -> "cfg"
  | Symex -> "symex"
  | Solve -> "solve"
  | Combine -> "combine"
  | Verify -> "verify"

(* -- counters ---------------------------------------------------------- *)

type counter =
  | Vm_steps  (** instructions executed by [Interp.run] *)
  | Symex_states_forked  (** branch decisions taken by directed symex *)
  | Symex_states_pruned  (** branch directions refuted as unsat *)
  | Solver_nodes  (** search-tree nodes visited by [Solve.solve] *)
  | Constraint_adds  (** constraints pushed into solver stores *)
  | Cache_hits
      (** products a job served to a later use instead of building them
          again: compiled S or T, ℓ, T's CFG for an ep *)
  | Pool_retries  (** worker crash/stall retries (requeues) *)
  | Pool_stalls
      (** jobs whose retry budget ran out on a stall (slot 7: counter
          positions are part of the journal's metrics encoding) *)
  | Pool_backoffs  (** backoff sleeps taken before a crash-retry *)
  | Admission_deferrals
      (** no longer counted: admission has a fixed window.  Slot 9 stays,
          since counter positions are part of the journal's metrics
          encoding. *)

let ncounters = 10

let all_counters =
  [
    Vm_steps;
    Symex_states_forked;
    Symex_states_pruned;
    Solver_nodes;
    Constraint_adds;
    Cache_hits;
    Pool_retries;
    Pool_stalls;
    Pool_backoffs;
    Admission_deferrals;
  ]

let counter_index = function
  | Vm_steps -> 0
  | Symex_states_forked -> 1
  | Symex_states_pruned -> 2
  | Solver_nodes -> 3
  | Constraint_adds -> 4
  | Cache_hits -> 5
  | Pool_retries -> 6
  | Pool_stalls -> 7
  | Pool_backoffs -> 8
  | Admission_deferrals -> 9

let counter_name = function
  | Vm_steps -> "vm-steps"
  | Symex_states_forked -> "symex-states-forked"
  | Symex_states_pruned -> "symex-states-pruned"
  | Solver_nodes -> "solver-nodes"
  | Constraint_adds -> "constraint-adds"
  | Cache_hits -> "cache-hits"
  | Pool_retries -> "pool-retries"
  | Pool_stalls -> "pool-stalls"
  | Pool_backoffs -> "pool-backoffs"
  | Admission_deferrals -> "admission-deferrals"

(* -- snapshots / cells ------------------------------------------------- *)

(* Latency histograms are log2-bucketed: bucket [i] counts spans whose
   duration in nanoseconds satisfies 2^i <= ns < 2^(i+1) (bucket 0 also
   absorbs sub-nanosecond readings).  32 buckets cover ~4.3 s in the top
   bucket's lower bound, far beyond any per-phase span here. *)
let nbuckets = 32

type snapshot = {
  counters : int array;  (** length [ncounters] *)
  phase_count : int array;  (** completed spans per phase *)
  phase_ns : int array;  (** total span nanoseconds per phase *)
  phase_hist : int array;  (** [nphases * nbuckets] log2 latency buckets *)
}

let zero () =
  {
    counters = Array.make ncounters 0;
    phase_count = Array.make nphases 0;
    phase_ns = Array.make nphases 0;
    phase_hist = Array.make (nphases * nbuckets) 0;
  }

let copy s =
  {
    counters = Array.copy s.counters;
    phase_count = Array.copy s.phase_count;
    phase_ns = Array.copy s.phase_ns;
    phase_hist = Array.copy s.phase_hist;
  }

let equal a b =
  a.counters = b.counters
  && a.phase_count = b.phase_count
  && a.phase_ns = b.phase_ns
  && a.phase_hist = b.phase_hist

(* The snapshot's wire layout, shared by the OPR3 verdict record and the
   OTL1 telemetry sample: the four arrays, in field order. *)
let write_snapshot b s =
  List.iter (Wire.put_array b Wire.put_int)
    [ s.counters; s.phase_count; s.phase_ns; s.phase_hist ]

(* The counter array is read length-tolerantly: it is the one snapshot
   dimension that grows when a release adds a counter (the phase list is
   the pipeline's shape; the counter list is an open enumeration).  A
   record written by an older build carries fewer counters — the missing
   ones read as 0; a newer build's extras are read and dropped.  More than
   64 is corrupt.  Each phase array must have exactly its current length.
   Sequenced lets: the reads must consume the stream in write order. *)
let read_snapshot r =
  let ints () = Wire.get_array r Wire.get_int in
  let exact n =
    let a = ints () in
    if Array.length a <> n then Wire.fail ();
    a
  in
  let got = ints () in
  if Array.length got > 64 then Wire.fail ();
  let counters = Array.make ncounters 0 in
  Array.blit got 0 counters 0 (min (Array.length got) ncounters);
  let phase_count = exact nphases in
  let phase_ns = exact nphases in
  let phase_hist = exact (nphases * nbuckets) in
  { counters; phase_count; phase_ns; phase_hist }

(* A cell is just a snapshot mutated in place by its owning domain. *)
let on = Atomic.make false
let registry : snapshot list ref = ref []
let reg_lock = Mutex.create ()

let cell_key : snapshot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = zero () in
      Mutex.lock reg_lock;
      registry := c :: !registry;
      Mutex.unlock reg_lock;
      c)

let is_on () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

let add c n =
  if Atomic.get on && n <> 0 then begin
    let cell = Domain.DLS.get cell_key in
    let i = counter_index c in
    cell.counters.(i) <- cell.counters.(i) + n
  end

let incr c = add c 1

let bucket_of_ns ns =
  if ns <= 1 then 0
  else
    let b = ref 0 and v = ref ns in
    while !v > 1 do
      v := !v lsr 1;
      Stdlib.incr b
    done;
    if !b >= nbuckets then nbuckets - 1 else !b

let observe_phase p ns =
  if Atomic.get on then begin
    let cell = Domain.DLS.get cell_key in
    let i = phase_index p in
    cell.phase_count.(i) <- cell.phase_count.(i) + 1;
    cell.phase_ns.(i) <- cell.phase_ns.(i) + ns;
    let h = (i * nbuckets) + bucket_of_ns ns in
    cell.phase_hist.(h) <- cell.phase_hist.(h) + 1
  end

(* -- arithmetic -------------------------------------------------------- *)

let add_into dst src =
  let blit d s = Array.iteri (fun i v -> d.(i) <- d.(i) + v) s in
  blit dst.counters src.counters;
  blit dst.phase_count src.phase_count;
  blit dst.phase_ns src.phase_ns;
  blit dst.phase_hist src.phase_hist

let sum snaps =
  let acc = zero () in
  List.iter (add_into acc) snaps;
  acc

let diff a b =
  let d = copy a in
  let sub x y = Array.iteri (fun i v -> x.(i) <- x.(i) - v) y in
  sub d.counters b.counters;
  sub d.phase_count b.phase_count;
  sub d.phase_ns b.phase_ns;
  sub d.phase_hist b.phase_hist;
  d

(* -- views ------------------------------------------------------------- *)

let per_domain () =
  Mutex.lock reg_lock;
  let cells = !registry in
  Mutex.unlock reg_lock;
  List.map copy cells

let aggregate () = sum (per_domain ())

(* Snapshot of the calling domain's own cell. *)
let current () = copy (Domain.DLS.get cell_key)

(* [scoped f] measures the delta this domain records while running [f].
   Returns [None] for the delta when collection is off, so callers can
   store the option directly.  Deltas are per-domain, which is exact for
   a pipeline run: every phase of a pair runs on the domain that called
   it. *)
let scoped f =
  if not (Atomic.get on) then (f (), None)
  else begin
    let before = current () in
    let v = f () in
    (v, Some (diff (current ()) before))
  end

let counter_value s c = s.counters.(counter_index c)
let phase_spans s p = s.phase_count.(phase_index p)
let phase_total_ns s p = s.phase_ns.(phase_index p)

let phase_hist_bucket s p i =
  if i < 0 || i >= nbuckets then invalid_arg "Metrics.phase_hist_bucket";
  s.phase_hist.((phase_index p * nbuckets) + i)

(* [percentile s p pct] reads the pct-th percentile (0 < pct <= 100) of
   phase [p]'s span latencies off the log2 histogram: the lower bound
   [2^i] ns of the bucket holding the rank-⌈pct/100·total⌉ span, [None]
   when no spans were recorded.  Exact to within the bucket's 2x width,
   which is all a log2 histogram ever promises — but deterministic,
   allocation-free, and shared by the [--metrics] breakdown and the
   [report] aggregator so both quote identical numbers. *)
let percentile s p pct =
  if not (pct > 0. && pct <= 100.) then invalid_arg "Metrics.percentile";
  let base = phase_index p * nbuckets in
  let total = ref 0 in
  for i = 0 to nbuckets - 1 do
    total := !total + s.phase_hist.(base + i)
  done;
  if !total = 0 then None
  else begin
    let rank =
      let r = int_of_float (Float.ceil (pct /. 100. *. float_of_int !total)) in
      max 1 (min r !total)
    in
    let acc = ref 0 and found = ref 0 in
    (try
       for i = 0 to nbuckets - 1 do
         acc := !acc + s.phase_hist.(base + i);
         if !acc >= rank then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    Some (1 lsl !found)
  end

(* -- pretty-printing --------------------------------------------------- *)

let pp_counters ppf s =
  let first = ref true in
  List.iter
    (fun c ->
      if not !first then Format.fprintf ppf " ";
      first := false;
      Format.fprintf ppf "%s=%d" (counter_name c) (counter_value s c))
    all_counters

let pp_phases ppf s =
  let first = ref true in
  List.iter
    (fun p ->
      if not !first then Format.fprintf ppf " ";
      first := false;
      Format.fprintf ppf "%s=%.1fms" (phase_name p)
        (float_of_int (phase_total_ns s p) /. 1e6))
    all_phases
