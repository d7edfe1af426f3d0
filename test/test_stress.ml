(* Batch-driver stress test under seeded worker faults.

   64 jobs with randomly drawn behaviors (fast / always-crash / slow /
   stall) go through the stream driver, and the full settlement contract
   is checked: every job settles exactly once, each behavior lands on its
   expected outcome, the pool retry/stall counters come out exactly right,
   and the aggregated metrics equal the sum of the per-domain cells. *)

module Rng = Octo_util.Rng
module Metrics = Octo_util.Metrics
module Faultinject = Octo_util.Faultinject
module Registry = Octo_targets.Registry
module O = Octopocs

let with_metrics f =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

type behavior = Fast | Crash | Slow | Stall

let name = function Fast -> "fast" | Crash -> "crash" | Slow -> "slow" | Stall -> "stall"

(* Crash and stall jobs fire their synthetic worker-fault site on every
   attempt, so they exhaust any retry budget; a slow job sleeps in its
   pre-run hook, then verifies normally. *)
let job_of (c : Registry.case) i b =
  let always site = Faultinject.create ~rate:0.0 ~site_rates:[ (site, 1.0) ] ~seed:i () in
  let config =
    match b with
    | Fast | Slow -> None
    | Crash -> Some { O.default_config with inject = always Faultinject.Worker_crash }
    | Stall -> Some { O.default_config with inject = always Faultinject.Worker_stall }
  in
  O.job ?config ~label:(Printf.sprintf "%s-%02d" (name b) i) ~s:c.s ~t:c.t ~poc:c.poc ()

let test_stress () =
  let n = 64 in
  let rng = Rng.create 0x57E55 in
  let behaviors =
    Array.init n (fun _ ->
        (* Mostly fast; enough faulty jobs to exercise every path without
           the stalls (two 0.25 s attempts each) dominating wall time. *)
        match Rng.int rng 16 with
        | 0 | 1 -> Crash
        | 2 | 3 -> Slow
        | 4 -> Stall
        | _ -> Fast)
  in
  let count b = Array.fold_left (fun a x -> if x = b then a + 1 else a) 0 behaviors in
  let ncrash = count Crash and nstall = count Stall in
  if ncrash = 0 || nstall = 0 then Alcotest.fail "seed draws no faulty jobs; pick another";
  let c = Registry.find 1 in
  let jobs = List.init n (fun i -> job_of c i behaviors.(i)) in
  let index j = int_of_string (List.nth (String.split_on_char '-' (O.job_label j)) 1) in
  let lock = Mutex.create () in
  let settled = Array.make n 0 in
  let reports = Array.make n None in
  let on_settle j r =
    let i = index j in
    Mutex.protect lock (fun () ->
        settled.(i) <- settled.(i) + 1;
        reports.(i) <- Some r)
  in
  let pre_run j = if behaviors.(index j) = Slow then Unix.sleepf 0.01 in
  with_metrics @@ fun () ->
  let m0 = Metrics.aggregate () in
  let st =
    O.run_stream ~jobs:8 ~retries:1 ~pre_run ~on_settle (O.stream_of_list jobs)
  in
  Alcotest.(check int) "one settle per job" n st.O.st_settled;
  Array.iteri (fun i k -> if k <> 1 then Alcotest.failf "job %d settled %d times" i k) settled;
  Array.iteri
    (fun i r ->
      let starts p (r : O.report) =
        match r.verdict with O.Failure msg -> String.starts_with ~prefix:p msg | _ -> false
      in
      match (behaviors.(i), r) with
      | (Fast | Slow), Some r ->
          Alcotest.(check string) "verdict" "Type-I" (O.verdict_class r.O.verdict)
      | Crash, Some r when starts "worker crashed: Injected(worker-crash" r -> ()
      | Stall, Some r when starts "worker stalled: Injected(worker-stall" r -> ()
      | b, _ -> Alcotest.failf "job %d (%s): unexpected outcome" i (name b))
    reports;
  let d = Metrics.diff (Metrics.aggregate ()) m0 in
  (* retries=1: every crasher and staller burns its one retry, and each
     staller's exhausted budget then counts one stall. *)
  Alcotest.(check int) "pool retries" (ncrash + nstall)
    (Metrics.counter_value d Metrics.Pool_retries);
  Alcotest.(check int) "pool stalls" nstall (Metrics.counter_value d Metrics.Pool_stalls);
  Alcotest.(check bool) "aggregate = sum of per-domain cells" true
    (Metrics.equal (Metrics.aggregate ()) (Metrics.sum (Metrics.per_domain ())))

let suite = [ Alcotest.test_case "64-task stress: seeded crash/stall/slow" `Slow test_stress ]
