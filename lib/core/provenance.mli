(** Per-pair causal evidence log: the semantic complement of
    {!Octo_util.Metrics} (how much work) and {!Octo_util.Trace} (when) —
    this module records {e why} a verdict came out the way it did.

    Events are typed decisions-with-evidence emitted by the pipeline
    phases:

    - {b P1}: which file-byte ranges each taint bunch covers and the ℓ
      access sites that consumed them ({!Taint_bunch});
    - {b P2}: branch directions forced because the preferred one was
      refuted, states pruned with both directions dead, and loop-retry
      grants against θ ({!Branch_forced}, {!Path_pruned}, {!Loop_retry});
    - {b P3}: where each bunch was pinned relative to the file-position
      indicator and, on a constraint conflict, a minimized conflicting
      core labelling each member as a bunch-byte pin, a replayed
      ep-argument, or one of T's own path constraints ({!Bunch_pinned},
      {!Conflict});
    - {b P4}: crash-site identity ({!Crash_site});
    - plus the escalated retry with the failure that triggered it
      ({!Rung}).

    Collection mirrors the Metrics discipline exactly: off by default, one
    [Atomic.get] per hook site when disabled, events recorded into a
    capped per-domain ring buffer (oldest dropped, drop count kept) and
    collected per pair with {!scoped}.  The log is deterministic for a
    deterministic run, so rendered explanations are byte-stable and
    diffable. *)

(** Where a conflicting constraint came from, for core labelling. *)
type origin =
  | Bunch_byte of { bunch : int; off : int; value : int }
      (** a P3 pin [in\[off\] == value] placed for bunch [bunch] *)
  | Replayed_arg of { bunch : int; arg : int; value : int }
      (** a replayed ep-argument equality for bunch [bunch], argument
          index [arg] (0-based) *)
  | Path_constraint
      (** one of T's own path constraints (a guard taken by P2) *)

(** One member of a minimized unsat core: its origin plus the rendered
    constraint. *)
type core_entry = { origin : origin; cond : string }

type event =
  | Taint_bunch of {
      seq : int;  (** 1-based ep entry *)
      anchor : int;  (** file-position indicator at entry *)
      ranges : (int * int) list;  (** inclusive file-byte ranges, sorted *)
      tainted_args : int list;  (** 0-based indices of input-derived args *)
      sites : string list;  (** ℓ functions whose accesses consumed them *)
    }
  | Branch_forced of { func : string; pc : int; preferred_taken : bool }
      (** the distance-preferred direction ([preferred_taken]) was refuted
          as unsat; execution fell back to the other one *)
  | Loop_retry of { func : string; pc : int; granted : int; theta : int }
      (** the loop at [func@pc] was granted its [granted]-th extra
          iteration (of at most [theta]) after a loop-dead run *)
  | Path_pruned of { func : string; pc : int }
      (** both directions of the branch at [func@pc] were unsat: the
          state died *)
  | Bunch_pinned of {
      seq : int;
      file_pos : int;  (** indicator the bunch was pinned at *)
      nbytes : int;  (** byte pins added *)
      args_replayed : int;  (** ep-argument equalities added *)
    }
  | Conflict of { seq : int; core : core_entry list }
      (** pinning bunch [seq] made the store unsat; [core] is the
          minimized conflicting set ([] when minimization was skipped,
          e.g. a primitive preceding the indicator) *)
  | Crash_site of { func : string; pc : int; fault : string; in_ell : bool }
  | Rung of { rung : string; failure : string }
      (** the pipeline retried as [rung] (["symex-escalate"]) because
          the first attempt failed with [failure] *)

(** A collected per-pair log: events in emission order, plus how many
    older events the ring buffer dropped to stay within its cap. *)
type t = { events : event list; dropped : int }

val empty : t

(** [enable ()] turns collection on process-wide.  Each domain keeps at
    most 4096 events per pair in its ring buffer. *)
val enable : unit -> unit

val disable : unit -> unit
val is_on : unit -> bool

(** [emit ev] records [ev] into the calling domain's ring buffer; a
    no-op costing one atomic load when collection is off. *)
val emit : event -> unit

(** [scoped f] resets the calling domain's buffer, runs [f], and returns
    its value with the events [f] emitted — [None] when collection is
    off.  Mirrors {!Octo_util.Metrics.scoped}. *)
val scoped : (unit -> 'a) -> 'a * t option

(** [ranges_of_offsets offs] coalesces sorted-or-not offsets into sorted
    inclusive ranges: [[3;4;5;9] -> [(3,5); (9,9)]]. *)
val ranges_of_offsets : int list -> (int * int) list

val event_count : t -> int

(** [conflict_core_size t] is the core size of the last {!Conflict}
    event, or 0 when none was recorded. *)
val conflict_core_size : t -> int

(** [last_conflict t] is the last {!Conflict} event's payload, if any. *)
val last_conflict : t -> (int * core_entry list) option

val pp_origin : Format.formatter -> origin -> unit
val pp_event : Format.formatter -> event -> unit

(** Binary codec used by the journal's optional provenance tail, laid
    out by {!Octo_util.Wire}: binary-safe, and [decode] is total
    (returns [None] on any malformed input, never raises). *)
val encode : t -> string

val decode : string -> t option
