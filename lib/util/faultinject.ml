(** Deterministic fault injection for the chaos harness.

    Each injection site is a point where production code asks "should a
    fault fire here?".  Decisions are drawn from splitmix64 streams — one
    independent stream per site, all derived from a single seed — so a
    schedule is a pure function of its seed: the same seed replays the same
    faults at the same draw positions regardless of how the surrounding
    batch is scheduled.  For that guarantee to hold across worker domains,
    give each job its own injector (the streams are mutable and
    unsynchronized by design; sharing one injector across domains trades
    determinism away).

    The default injector is {!none}: every check compiles to one tag test,
    so the sites cost nothing when the toggle is off.

    Sites:
    - {!Vm_syscall}: a MiniVM syscall fails mid-run (checked once per
      executed [Sys] instruction in {!Octo_vm.Interp}).
    - {!Solver_budget}: the model search starves, as if the node budget ran
      out ({!Octo_solver.Solve.solve} returns [Unknown]).
    - {!Worker_crash}: a synthetic exception escapes the job before the
      pipeline starts (drawn by the batch driver in [Octopocs] before
      each attempt, in every isolation mode, and raised where the attempt
      runs).
    - {!Deadline_expiry}: an artificial deadline expiry at a pipeline phase
      boundary (raises {!Deadline.Deadline_exceeded}).
    - {!Journal_write}: a torn write during a write-ahead-journal append —
      only a prefix of the frame reaches the file before the "process dies"
      (checked in {!Journal.append}).
    - {!Worker_stall}: a worker wedges instead of crashing — the job sleeps
      a fixed 0.25 s, then fails with a stall marker the driver classifies
      as ["worker stalled"] (drawn beside {!Worker_crash}).
    - {!Child_segv}: a sandboxed worker process dies of SIGSEGV before
      producing a verdict (drawn by the batch driver before each fork,
      so retries advance the stream deterministically).
    - {!Child_oom_kill}: a sandboxed worker process is SIGKILLed as if by
      the kernel OOM killer (drawn like {!Child_segv}).  Both child sites
      are inert in Domain isolation — only the process sandbox checks
      them. *)

type site =
  | Vm_syscall
  | Solver_budget
  | Worker_crash
  | Deadline_expiry
  | Journal_write
  | Worker_stall
  | Child_segv
  | Child_oom_kill

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected what -> Some (Printf.sprintf "Injected(%s)" what)
    | _ -> None)

let all_sites =
  [
    Vm_syscall;
    Solver_budget;
    Worker_crash;
    Deadline_expiry;
    Journal_write;
    Worker_stall;
    Child_segv;
    Child_oom_kill;
  ]

(* The two child sites were appended at indices 6 and 7: [create] derives
   per-site streams from the master in index order, so appending (never
   reordering) keeps every pre-existing site's stream — and therefore
   every recorded chaos schedule — bit-identical across the change. *)
let nsites = 8

let site_index = function
  | Vm_syscall -> 0
  | Solver_budget -> 1
  | Worker_crash -> 2
  | Deadline_expiry -> 3
  | Journal_write -> 4
  | Worker_stall -> 5
  | Child_segv -> 6
  | Child_oom_kill -> 7

let site_name = function
  | Vm_syscall -> "vm-syscall"
  | Solver_budget -> "solver-budget"
  | Worker_crash -> "worker-crash"
  | Deadline_expiry -> "deadline-expiry"
  | Journal_write -> "journal-write"
  | Worker_stall -> "worker-stall"
  | Child_segv -> "child-segv"
  | Child_oom_kill -> "child-oom-kill"

(** [site_of_name name] maps a CLI-facing site name (e.g. ["child-segv"])
    back to its site; [None] for unknown names — the caller owns the
    user-facing error. *)
let site_of_name name = List.find_opt (fun s -> site_name s = name) all_sites

type t =
  | Off
  | On of {
      rates_ppm : int array;  (* per-site firing probability, parts/million *)
      streams : Rng.t array;  (* per-site independent splitmix64 streams *)
    }

let none = Off

let enabled = function Off -> false | On _ -> true

let ppm r = if r <= 0. then 0 else if r >= 1. then 1_000_000 else int_of_float (r *. 1e6)

(** [seed_for ~seed label] derives a per-pair injector seed from a batch
    seed and a pair label.  Registry pairs use integer indices mixed with a
    golden-ratio constant; corpus pairs have string labels, so this hashes
    the label bytes (FNV-1a, a fixed algorithm — NOT [Hashtbl.hash], whose
    output is not pinned across compiler versions) into the seed.  Stable
    across runs and processes, so killed-and-resumed corpus runs replay the
    same per-pair fault schedules. *)
let seed_for ~seed label =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x100000001B3 land max_int)
    label;
  seed lxor !h

(** [create ?rate ?site_rates ~seed ()] builds an injector whose every site
    fires with probability [rate] per check, overridden per-site by
    [site_rates].  A rate of [1.0] fires on every check (used by tests to
    force a specific fault), [0.0] never draws. *)
let create ?(rate = 0.01) ?(site_rates = []) ~seed () =
  let master = Rng.create seed in
  let streams = Array.init nsites (fun _ -> Rng.split master) in
  let rates_ppm = Array.make nsites (ppm rate) in
  List.iter (fun (s, r) -> rates_ppm.(site_index s) <- ppm r) site_rates;
  On { rates_ppm; streams }

(** [fire t site] draws the site's next decision.  Advances that site's
    stream (unless the site's rate is zero, which skips the draw). *)
let fire t site =
  match t with
  | Off -> false
  | On { rates_ppm; streams } ->
      let i = site_index site in
      rates_ppm.(i) > 0 && Rng.int streams.(i) 1_000_000 < rates_ppm.(i)

(** [maybe_raise t site ~what] fires the site and raises the fault it
    models: {!Deadline.Deadline_exceeded} for {!Deadline_expiry} (so the
    pipeline's deadline handling is exercised end-to-end), {!Injected}
    otherwise. *)
let maybe_raise t site ~what =
  if fire t site then
    match site with
    | Deadline_expiry -> raise (Deadline.Deadline_exceeded (what ^ " [injected]"))
    | _ -> raise (Injected (site_name site ^ ": " ^ what))
