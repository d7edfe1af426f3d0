(* The batch driver: one loop that pulls jobs, hands their attempts to
   an executor (inline, worker domains or forked children), and settles,
   retries or quarantines each. *)

open Octo_vm
open Verdict
open Pipeline
open Record
module Faultinject = Octo_util.Faultinject
module Log = Octo_util.Log
module Sandbox = Octo_util.Sandbox
module Telemetry = Octo_util.Telemetry

type job = {
  label : string;
  js : Isa.program;
  jt : Isa.program;
  jpoc : string;
  jell : string list option;
  jconfig : config option;  (** per-job override of the batch config *)
  jproducts : products;  (** what the job derives from [js] and [jt] *)
}

let job ?ell ?config ~label ~s ~t ~poc () =
  { label; js = s; jt = t; jpoc = poc; jell = ell; jconfig = config; jproducts = products () }

let job_label (j : job) = j.label
let job_products (j : job) = j.jproducts

type isolation = Domains | Processes

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
  aconfig : config;  (* the job's own config, else the batch's *)
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
   verifies against it when the job's S is the probe's very program and
   the PoC bytes match, and against a fresh probe, which replaces it,
   otherwise.  The job's own products ride along.  The slot is
   empty while the pipeline runs, so an attempt that raises in it leaves
   no probe behind. *)
let run_attempt ?pre_run ~held a =
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
  let p = reuse_probe !held ~s:j.js ~poc:j.jpoc in
  held := None;
  let r = verify ~config:a.aconfig ?ell:j.jell ~products:j.jproducts p ~t:j.jt () in
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
let worker_here ?pre_run () =
  let held = ref None in
  fun a ->
    match run_attempt ?pre_run ~held a with
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
let process_executor ~limits ~child_rss_kb ?pre_run () =
  let active = ref [] in
  let start a =
    let j = a.aj in
    let die =
      match a.afault with
      | Some Faultinject.Child_segv -> `Segv
      | Some Faultinject.Child_oom_kill -> `Oom_kill
      | _ -> `None
    in
    (* The wall-clock kill is a hard backstop well behind the cooperative
       deadline (which already absorbs the escalated retry); no per-job deadline
       means the parent never kills on time. *)
    let kill_after_s = Option.map (fun d -> (d *. 4.0) +. 1.0) a.aconfig.deadline_s in
    (* The child ships its settled report as its one frame, with an
       empty key: the parent reads only the report, and the journal's
       keys come from the run's own entries.  Exceptions escape into
       [Sandbox.spawn]'s transport.  Its probe slot starts empty and dies
       with it, and what it adds to the job's products stays in its own
       address space, so a child shares nothing. *)
    let payload () =
      encode_result ~label:j.label ~key:"" (run_attempt ?pre_run ~held:(ref None) a)
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
        (process_executor ~limits ~child_rss_kb ?pre_run (), process_fault_sites)
    | Domains when serial -> (inline_executor (worker_here ?pre_run ()), domain_fault_sites)
    | Domains -> (pool_executor ~jobs (worker_here ?pre_run), domain_fault_sites)
  in
  let pulled = ref 0 and settled = ref 0 and quarantined = ref 0 in
  let in_flight = ref 0 and peak = ref 0 in
  let retried = ref 0 and stalls = ref 0 and exhausted_src = ref false in
  (* Attempts that died and are due a retry. *)
  let pending : attempt Queue.t = Queue.create () in
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
  let start j aconfig k =
    let afault = List.find_opt (Faultinject.fire aconfig.inject) fault_sites in
    let adelay =
      if k = 0 then 0. else Octo_util.Pool.backoff_delay ~key:(Hashtbl.hash j.label) ~attempt:k ()
    in
    exec.start { aj = j; aconfig; ak = k; adelay; afault };
    incr in_flight;
    if !in_flight > !peak then peak := !in_flight
  in
  let rec admit () =
    if !in_flight < window && not (Queue.is_empty pending && !exhausted_src) then begin
      (match Queue.take_opt pending with
      | Some a -> start a.aj a.aconfig (a.ak + 1)
      | None -> (
          match next () with
          | None -> exhausted_src := true
          | Some j ->
              incr pulled;
              start j (Option.value j.jconfig ~default:config) 0));
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
        Queue.add a pending
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
                qkey =
                  content_key ~config:a.aconfig ?ell:j.jell ~s:j.js ~t:j.jt ~poc:j.jpoc ();
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
  (* One fresh copy per position: duplicates in [batch] stay distinct,
     and each copy shares its job's products. *)
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

