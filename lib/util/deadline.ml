(** Monotonic-clock wall-time budgets for cooperative cancellation.

    A {!t} is an absolute expiry point on the monotonic clock.  Long-running
    engines (the concrete interpreter, directed symbolic execution, the
    constraint solver's model search) poll {!check} at step/node granularity
    and raise {!Deadline_exceeded} when the budget is gone; the pipeline
    converts the exception into a structured [Failure] verdict, so a
    pathological pair costs its budget instead of hanging a whole batch.

    The clock is CLOCK_MONOTONIC via a one-line C stub: wall-clock
    (gettimeofday) budgets mis-fire when NTP steps the clock, and the
    OCaml 5.1 Unix library does not expose the monotonic clock. *)

external monotonic_ns : unit -> int64 = "octo_monotonic_ns"

(** [Int64.max_int] encodes "no deadline": it compares after every
    reachable clock reading, so [expired] is a plain comparison. *)
type t = { expires_at : int64 }

exception Deadline_exceeded of string
(** The payload names the engine that noticed the expiry (e.g. "concrete
    execution", "solver model search"), not the site that set the budget. *)

let () =
  Printexc.register_printer (function
    | Deadline_exceeded what -> Some (Printf.sprintf "Deadline_exceeded(%s)" what)
    | _ -> None)

let none = { expires_at = Int64.max_int }

let is_none t = Int64.equal t.expires_at Int64.max_int

(* The monotonic-clock reading [seconds] from now.  A budget past the
   clock's int64 range saturates to [Int64.max_int] ("never"):
   [Int64.of_float] is undefined there and would land in the past.  NaN
   and negative budgets are refused. *)
let expiry_ns ~fn seconds =
  if Float.is_nan seconds then invalid_arg (fn ^ ": NaN budget");
  if seconds < 0. then invalid_arg (fn ^ ": negative budget");
  let now = monotonic_ns () in
  let ns = seconds *. 1e9 in
  if ns >= Int64.to_float (Int64.sub Int64.max_int now) then Int64.max_int
  else Int64.add now (Int64.of_float ns)

(** [after ~seconds] is a deadline [seconds] from now.  [seconds = 0.]
    yields an already-expired deadline (useful in tests); a budget beyond
    the clock's range (e.g. [infinity]) is {!none}. *)
let after ~seconds = { expires_at = expiry_ns ~fn:"Deadline.after" seconds }

let expired t = (not (is_none t)) && Int64.compare (monotonic_ns ()) t.expires_at >= 0

(** [ns_after ~seconds] is the absolute monotonic-clock reading [seconds]
    from now — the raw form of {!after} for supervisors that compare many
    expiry points against one clock sample (the process sandbox's parent
    loop) instead of polling {!check} per deadline.  Saturates at
    [Int64.max_int] like {!after}. *)
let ns_after ~seconds = expiry_ns ~fn:"Deadline.ns_after" seconds

(** [check t ~what] raises {!Deadline_exceeded} when the budget is spent.
    One monotonic-clock read; callers gate it on a step counter so the cost
    stays out of hot loops. *)
let check t ~what = if expired t then raise (Deadline_exceeded what)

(** [remaining_s t] is the budget left in seconds, [infinity] for {!none}
    and [0.] once expired. *)
let remaining_s t =
  if is_none t then infinity
  else max 0. (Int64.to_float (Int64.sub t.expires_at (monotonic_ns ())) /. 1e9)
