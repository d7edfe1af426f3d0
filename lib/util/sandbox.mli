(** Fork-based process isolation for verification jobs.

    Each job runs [f : unit -> string] in a forked child under optional
    [setrlimit] bounds and returns its payload over a length-framed,
    CRC-checked pipe (the journal's frame layout, so the decoder is
    total and torn-frame tolerant).  The parent classifies every way a
    child can die into a {!death}, and {!Admission} turns observed
    memory pressure into admission decisions for the streaming driver.

    Fork safety: OCaml 5.1 forbids [Unix.fork] permanently once any
    domain has ever been spawned in the process — the restriction
    latches; joining the domain does not lift it.  Process isolation
    must therefore be the process's FIRST parallel work: never run a
    Domain-mode batch before {!spawn} in the same process. *)

type limits = {
  as_mb : int option;  (** RLIMIT_AS in MiB; [None] leaves it unbounded *)
  cpu_s : int option;
      (** RLIMIT_CPU soft limit in seconds (hard limit one second
          later), a backstop behind the cooperative deadline *)
}

val no_limits : limits

val oom_exit_code : int
(** Reserved exit code (77) a child converts [Out_of_memory] into; the
    handler must not allocate, so no message crosses the pipe. *)

val exn_prefix : string
(** ["OEXN1"] — prefix marking a frame payload as a transported child
    exception rather than a result. *)

(** Classification of a child's death, from its [wait4] status plus the
    state of its pipe frame. *)
type death =
  | Clean of string  (** exit 0 with a valid frame: the result payload *)
  | Child_exn of string
      (** exit 0 with an {!exn_prefix} frame: the child's exception,
          printed *)
  | Segv  (** killed by SIGSEGV (or SIGBUS) *)
  | Oom of string
      (** out of memory — own [Out_of_memory] under RLIMIT_AS, or
          SIGKILL attributed to the kernel OOM killer *)
  | Cpu  (** killed by SIGXCPU: RLIMIT_CPU expired *)
  | Deadline_kill  (** SIGKILLed by the parent at its wall-clock budget *)
  | Torn of string
      (** exited cleanly but the frame is missing, truncated or
          CRC-corrupt *)
  | Other of string  (** unexpected exit code or signal *)

val pp_death : Format.formatter -> death -> unit

val frame : string -> string
(** [frame payload] is the single frame a child writes: the journal's
    {!Wire.frame}. *)

val parse_frame : string -> (string, string) result
(** Total decoder for {!frame}; [Error why] describes the tear. *)

type child
(** A live supervised child process. *)

val pid : child -> int

val fd : child -> Unix.file_descr
(** Parent's non-blocking read end, for select loops. *)

val spawn :
  ?limits:limits ->
  ?kill_after_s:float ->
  ?die:[ `None | `Segv | `Oom_kill ] ->
  (unit -> string) ->
  child
(** Forks a child running [f]; [kill_after_s] arms the parent-side
    wall-clock kill, [die] is the pre-drawn fault injection (the child
    signals itself before doing any work). *)

val drain : child -> bool
(** Read everything currently in the pipe; [true] on EOF. *)

val kill : child -> unit
(** Idempotent SIGKILL; marks the child so {!reap} reports
    {!Deadline_kill}. *)

val deadline_expired : child -> bool

val reap : child -> death * int
(** Close the pipe, wait for the child (momentary — call only after EOF
    or {!kill}) and classify.  Also returns the child's max RSS in KiB
    for {!Admission.note_child_rss}. *)

val run_child :
  ?limits:limits ->
  ?kill_after_s:float ->
  ?die:[ `None | `Segv | `Oom_kill ] ->
  (unit -> string) ->
  death * int
(** One-shot spawn/supervise/classify for single-job callers. *)

(** Memory-pressure admission control for the streaming driver: a
    window that halves past a watermark (parent RSS + worst observed
    child RSS) and regrows one admission at a time below half the
    watermark. *)
module Admission : sig
  type t

  val create : ?watermark_mb:int -> ?probe:(unit -> int) -> window:int -> unit -> t
  (** No [watermark_mb] means pressure never shrinks the window —
      [admit] degrades to plain window backpressure.  [probe] overrides
      the parent-RSS reading (KiB): a test seam, since RSS cannot be
      lowered on demand ([Gc.compact] does not return memory to the OS
      on OCaml 5.1), which makes the regrow path unreachable from a
      real-RSS test. *)

  val self_rss_kb : t -> int
  (** Parent resident set from /proc/self/statm; 0 where /proc is
      absent. *)

  val note_child_rss : t -> int -> unit
  (** Record a reaped child's max RSS (KiB). *)

  val admit : t -> in_flight:int -> [ `Admit | `Defer of [ `Pressure | `Full ] ]
  (** Re-evaluate pressure, then answer. [`Defer `Pressure] means the
      window is currently shrunk below its configured size. *)

  val window : t -> int
  (** Current (possibly shrunk) window size. *)

  val worst_child_kb : t -> int
end
