(** Fork-based process isolation for verification jobs.

    A sandboxed job runs [f : unit -> string] in a forked child under
    optional [setrlimit] bounds (RLIMIT_AS for memory, RLIMIT_CPU as a
    hard backstop behind the cooperative deadline) and ships its result
    back over a pipe as a single length-framed, CRC-checked frame — the
    same frame layout as the write-ahead journal, so the parent-side
    decoder is total: a child that dies mid-write produces a torn frame,
    never a parse exception.

    The parent supervises: it drains the pipe from a select loop, kills
    children that outlive their wall-clock budget, and on exit classifies
    each death ({!death}) from the [wait4] status — clean verdict, child
    exception (transported as an ["OEXN1"]-prefixed payload), SIGSEGV,
    OOM (either the child's own [Out_of_memory] under RLIMIT_AS, exit
    code {!oom_exit_code}, or a SIGKILL attributed to the kernel OOM
    killer), RLIMIT_CPU expiry (SIGXCPU), parent deadline-kill, or a torn
    pipe protocol.  [wait4] also reports the child's max RSS, which feeds
    the {!Admission} memory-pressure controller.

    Fork safety: OCaml 5.1 refuses [Unix.fork] permanently once any
    domain has ever been spawned in the process — the restriction
    latches, and joining the domain does not lift it.  Sandboxed work
    must therefore be the process's FIRST parallel work: never run a
    Domain-mode batch (or create any pool) before the first {!spawn}.
    The process scheduler in [Octopocs] honours this by doing all its
    parallelism at the process level: it never spawns a domain. *)

external setrlimit_as : int -> unit = "octo_setrlimit_as"
external setrlimit_cpu : int -> unit = "octo_setrlimit_cpu"
external page_size : unit -> int = "octo_page_size"

external wait4 : int -> bool -> int * int * int * int = "octo_wait4"
(** [(pid, kind, detail, maxrss_kb)]; see sandbox_stubs.c for the
    encoding.  [pid = 0] only under [nohang]. *)

type limits = {
  as_mb : int option;  (** RLIMIT_AS, MiB; [None] leaves it unbounded *)
  cpu_s : int option;
      (** RLIMIT_CPU soft limit, seconds (hard limit one second later);
          a backstop behind the cooperative deadline, not a scheduler *)
}

let no_limits = { as_mb = None; cpu_s = None }

(* A child whose allocation trips RLIMIT_AS sees an ordinary
   [Out_of_memory] (Linux returns ENOMEM from mmap; the OCaml runtime
   converts it).  The child handler must not allocate — even building an
   exception message can re-trip the limit — so it converts the
   exception straight into this reserved exit code. *)
let oom_exit_code = 77

(* A child exception is transported as a *valid* frame whose payload
   carries this prefix followed by [Printexc.to_string].  Using the
   normal success path (frame + exit 0) keeps the protocol total: the
   parent distinguishes verdict from exception by prefix, and a crash
   during exception transport still degrades to a torn frame. *)
let exn_prefix = "OEXN1"

type death =
  | Clean of string  (** exit 0 with a valid frame: the result payload *)
  | Child_exn of string
      (** exit 0 with an {!exn_prefix} frame: the child's exception,
          printed *)
  | Segv  (** killed by SIGSEGV (or SIGBUS) *)
  | Oom of string
      (** out of memory: either the child's own conversion of
          [Out_of_memory] under RLIMIT_AS ({!oom_exit_code}) or a
          SIGKILL attributed to the kernel OOM killer *)
  | Cpu  (** killed by SIGXCPU: RLIMIT_CPU expired *)
  | Deadline_kill  (** SIGKILLed by the parent at its wall-clock budget *)
  | Torn of string
      (** exited cleanly but the pipe frame is missing, truncated or
          CRC-corrupt — the argument says how *)
  | Other of string  (** anything else (unexpected exit code or signal) *)

let pp_death ppf = function
  | Clean _ -> Format.fprintf ppf "clean"
  | Child_exn e -> Format.fprintf ppf "child-exn(%s)" e
  | Segv -> Format.fprintf ppf "segv"
  | Oom why -> Format.fprintf ppf "oom(%s)" why
  | Cpu -> Format.fprintf ppf "cpu"
  | Deadline_kill -> Format.fprintf ppf "deadline-kill"
  | Torn why -> Format.fprintf ppf "torn(%s)" why
  | Other why -> Format.fprintf ppf "other(%s)" why

(* ------------------------------------------------------------------ *)
(* Pipe protocol: one frame per child, the journal's [Wire] frame, so
   torn-write tolerance is inherited rather than re-invented. *)

let frame = Wire.frame

(** [parse_frame data] decodes the single frame a child wrote.  Total:
    every malformed input maps to [Error why], suitable for {!Torn}. *)
let parse_frame data =
  match Wire.unframe data 0 with
  | Ok (_, next) when next < String.length data -> Error "trailing bytes after frame"
  | Ok (payload, _) -> Ok payload
  | Error why -> Error why

(* ------------------------------------------------------------------ *)
(* Spawning and supervising. *)

type child = {
  pid : int;
  fd : Unix.file_descr;  (** parent's read end, non-blocking *)
  cbuf : Buffer.t;  (** bytes drained so far *)
  mutable ckilled : bool;  (** parent sent SIGKILL (deadline) *)
  cdeadline : int64 option;  (** absolute monotonic kill point *)
}

let pid c = c.pid
let fd c = c.fd

let apply_limits l =
  Option.iter setrlimit_as l.as_mb;
  Option.iter setrlimit_cpu l.cpu_s

(** [spawn ?limits ?kill_after_s ?die f] forks a child that runs [f] and
    writes its result frame to the pipe.  [die] is the fault-injection
    hook: the *parent* draws the decision before forking (so retries
    advance the injector stream) and the child executes it by signalling
    itself before any real work — [`Segv] models a native crash,
    [`Oom_kill] models the kernel OOM killer.  The child converts
    [Out_of_memory] to {!oom_exit_code} and any other exception to an
    {!exn_prefix} frame; it leaves via [Unix._exit] on every path so
    no parent [at_exit] handler (journal writers, pools) runs twice. *)
let spawn ?(limits = no_limits) ?kill_after_s ?(die = `None) f =
  let r, w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      (try
         Unix.close r;
         (match die with
         | `Segv -> Unix.kill (Unix.getpid ()) Sys.sigsegv
         | `Oom_kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
         | `None -> ());
         apply_limits limits;
         let payload =
           try f () with
           | Out_of_memory -> Unix._exit oom_exit_code
           | e -> exn_prefix ^ Printexc.to_string e
         in
         let fr = Bytes.unsafe_of_string (frame payload) in
         let n = Bytes.length fr in
         let off = ref 0 in
         while !off < n do
           off := !off + Unix.write w fr !off (n - !off)
         done;
         Unix.close w;
         Unix._exit 0
       with _ -> Unix._exit 1)
  | pid ->
      Unix.close w;
      Unix.set_nonblock r;
      let cdeadline =
        Option.map (fun seconds -> Deadline.ns_after ~seconds) kill_after_s
      in
      { pid; fd = r; cbuf = Buffer.create 256; ckilled = false; cdeadline }

(** [drain c] reads whatever the pipe holds right now; [true] on EOF
    (child closed its end — by finishing or by dying). *)
let drain c =
  let buf = Bytes.create 4096 in
  let rec loop () =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> true
    | n ->
        Buffer.add_subbytes c.cbuf buf 0 n;
        loop ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> false
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
  in
  loop ()

(** [kill c] SIGKILLs the child (idempotent; ESRCH for an
    already-reaped pid is swallowed).  Marks the child so {!reap}
    classifies the death as {!Deadline_kill} regardless of how the
    kernel reports it. *)
let kill c =
  if not c.ckilled then begin
    c.ckilled <- true;
    try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ()
  end

let deadline_expired c =
  match c.cdeadline with
  | None -> false
  | Some d -> Int64.compare (Deadline.monotonic_ns ()) d >= 0

(** [reap c] closes the pipe, waits for the child (momentary: only
    called after EOF or {!kill}) and classifies the death.  Returns the
    classification and the child's max RSS in KiB for the admission
    controller.  Precedence: a parent kill is always {!Deadline_kill}
    (the kernel just sees SIGKILL, which would otherwise read as the
    OOM killer). *)
let reap c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  let _, kind, detail, maxrss_kb = wait4 c.pid false in
  let data = Buffer.contents c.cbuf in
  let death =
    if c.ckilled then Deadline_kill
    else
      match kind with
      | 0 ->
          if detail = oom_exit_code then Oom "allocation past RLIMIT_AS"
          else if detail = 0 then begin
            match parse_frame data with
            | Error why -> Torn why
            | Ok payload ->
                let pn = String.length exn_prefix in
                if
                  String.length payload >= pn
                  && String.sub payload 0 pn = exn_prefix
                then Child_exn (String.sub payload pn (String.length payload - pn))
                else Clean payload
          end
          else Other (Printf.sprintf "exit code %d" detail)
      | 1 -> (
          match detail with
          | 1 -> Segv
          | 2 -> Oom "SIGKILL (kernel OOM killer)"
          | 3 -> Cpu
          | 4 -> Other "SIGABRT"
          | _ -> Other "unclassified fatal signal")
      | _ -> Other "child neither exited nor was signaled"
  in
  (death, maxrss_kb)

(** [run_child ?limits ?kill_after_s ?die f] is the one-shot form:
    spawn, supervise to completion, classify.  Used by callers running
    a single job (tests); the streaming scheduler multiplexes many
    children over one select loop instead. *)
let run_child ?limits ?kill_after_s ?die f =
  let c = spawn ?limits ?kill_after_s ?die f in
  let rec loop () =
    if deadline_expired c then kill c;
    let eof =
      match Unix.select [ c.fd ] [] [] 0.05 with
      | [ _ ], _, _ -> drain c
      | _ -> false
      | exception Unix.Unix_error (EINTR, _, _) -> false
    in
    if eof then reap c else loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Memory-pressure admission control. *)

module Admission = struct
  (* The streaming parent admits a new child only while the in-flight
     count is under a window.  The window starts at the configured
     concurrency and shrinks (halving, floor 1) whenever estimated
     pressure — parent RSS plus the worst child max-RSS seen so far, a
     conservative stand-in for "what one more child could cost" —
     crosses the watermark; it regrows by one admission at a time once
     pressure falls below half the watermark (hysteresis, so the window
     does not thrash at the boundary). *)
  type t = {
    watermark_kb : int option;
    base_window : int;
    mutable cur_window : int;
    mutable worst_child_kb : int;
    page_kb : int;
    probe : (unit -> int) option;
        (* parent-pressure override (KiB); None reads /proc.  A seam for
           tests: RSS cannot be lowered on demand (Gc.compact does not
           return memory to the OS on OCaml 5.1), so the regrow path is
           only reachable deterministically through an injected probe. *)
  }

  let create ?watermark_mb ?probe ~window () =
    {
      watermark_kb = Option.map (fun mb -> mb * 1024) watermark_mb;
      base_window = max 1 window;
      cur_window = max 1 window;
      worst_child_kb = 0;
      page_kb = max 1 (page_size () / 1024);
      probe;
    }

  (** Parent resident set in KiB, from /proc/self/statm (field 2 is
      resident pages).  0 where /proc is absent — pressure control then
      degrades to plain window backpressure. *)
  let self_rss_kb t =
    match open_in "/proc/self/statm" with
    | exception Sys_error _ -> 0
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              Scanf.sscanf (input_line ic) " %d %d" (fun _ rss ->
                  rss * t.page_kb)
            with _ -> 0)

  let note_child_rss t kb = if kb > t.worst_child_kb then t.worst_child_kb <- kb

  let refresh t =
    match t.watermark_kb with
    | None -> ()
    | Some wm ->
        let parent_kb =
          match t.probe with Some f -> f () | None -> self_rss_kb t
        in
        let pressure = parent_kb + t.worst_child_kb in
        if pressure > wm then t.cur_window <- max 1 (t.cur_window / 2)
        else if pressure < wm / 2 && t.cur_window < t.base_window then
          t.cur_window <- t.cur_window + 1

  (** [admit t ~in_flight] re-evaluates pressure and answers whether one
      more child may start.  [`Defer `Pressure] means the window has
      been shrunk below its configured size — the caller records the
      degradation; [`Defer `Full] is ordinary backpressure at full
      window. *)
  let admit t ~in_flight =
    refresh t;
    if in_flight < t.cur_window then `Admit
    else if t.cur_window < t.base_window then `Defer `Pressure
    else `Defer `Full

  let window t = t.cur_window
  let worst_child_kb t = t.worst_child_kb
end
