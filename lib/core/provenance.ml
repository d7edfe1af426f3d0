(* Per-pair causal evidence log.  See the interface for the event
   taxonomy; this file is the recording machinery (Metrics-style gated
   ring buffer) plus the total binary codec used by the journal tail. *)

type origin =
  | Bunch_byte of { bunch : int; off : int; value : int }
  | Replayed_arg of { bunch : int; arg : int; value : int }
  | Path_constraint

type core_entry = { origin : origin; cond : string }

type event =
  | Taint_bunch of {
      seq : int;
      anchor : int;
      ranges : (int * int) list;
      tainted_args : int list;
      sites : string list;
    }
  | Branch_forced of { func : string; pc : int; preferred_taken : bool }
  | Loop_retry of { func : string; pc : int; granted : int; theta : int }
  | Path_pruned of { func : string; pc : int }
  | Bunch_pinned of { seq : int; file_pos : int; nbytes : int; args_replayed : int }
  | Conflict of { seq : int; core : core_entry list }
  | Crash_site of { func : string; pc : int; fault : string; in_ell : bool }
  | Rung of { rung : string; failure : string }

type t = { events : event list; dropped : int }

let empty = { events = []; dropped = 0 }

(* -- recording ---------------------------------------------------------- *)

(* The hot-path discipline is Metrics': one [Atomic.get] on [on] per hook
   site when disabled.  When enabled, each domain records into its own
   ring buffer (a plain array indexed modulo the cap) — no locks, no
   cross-domain contention, and [scoped] collects/reset it around one
   pair. *)
let on = Atomic.make false

(* Events kept per domain and pair; older ones are dropped and counted. *)
let ring_cap = 4096

type cell = {
  mutable buf : event option array;  (* ring; length = cap at creation *)
  mutable count : int;  (* events emitted since the last reset *)
}

let cell_key : cell Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { buf = [||]; count = 0 })

let is_on () = Atomic.get on

let enable () = Atomic.set on true

let disable () = Atomic.set on false

let emit ev =
  if Atomic.get on then begin
    let c = Domain.DLS.get cell_key in
    if Array.length c.buf = 0 then c.buf <- Array.make ring_cap None;
    c.buf.(c.count mod Array.length c.buf) <- Some ev;
    c.count <- c.count + 1
  end

let reset c =
  Array.fill c.buf 0 (Array.length c.buf) None;
  c.count <- 0

let collect c =
  let n = Array.length c.buf in
  if n = 0 || c.count = 0 then empty
  else begin
    let kept = min c.count n in
    let start = if c.count <= n then 0 else c.count mod n in
    let events =
      List.init kept (fun i ->
          match c.buf.((start + i) mod n) with Some e -> e | None -> assert false)
    in
    { events; dropped = c.count - kept }
  end

let scoped f =
  if not (Atomic.get on) then (f (), None)
  else begin
    let c = Domain.DLS.get cell_key in
    if Array.length c.buf = 0 then c.buf <- Array.make ring_cap None;
    reset c;
    let v = f () in
    (v, Some (collect c))
  end

(* -- small helpers ------------------------------------------------------ *)

let ranges_of_offsets offs =
  let sorted = List.sort_uniq compare offs in
  let rec go acc = function
    | [] -> List.rev acc
    | o :: rest -> (
        match acc with
        | (lo, hi) :: tl when o = hi + 1 -> go ((lo, o) :: tl) rest
        | _ -> go ((o, o) :: acc) rest)
  in
  go [] sorted

let event_count t = List.length t.events

let last_conflict t =
  List.fold_left
    (fun acc ev -> match ev with Conflict { seq; core } -> Some (seq, core) | _ -> acc)
    None t.events

let conflict_core_size t =
  match last_conflict t with Some (_, core) -> List.length core | None -> 0

(* -- pretty-printing ---------------------------------------------------- *)

let pp_ranges ppf rs =
  let pp_one ppf (lo, hi) =
    if lo = hi then Fmt.pf ppf "%d" lo else Fmt.pf ppf "%d..%d" lo hi
  in
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any ",") pp_one) rs

let pp_origin ppf = function
  | Bunch_byte { bunch; off; value } ->
      Fmt.pf ppf "bunch %d byte in[%d]=0x%02x" bunch off (value land 0xff)
  | Replayed_arg { bunch; arg; value } ->
      Fmt.pf ppf "bunch %d replayed arg #%d=%d" bunch arg value
  | Path_constraint -> Fmt.pf ppf "T path constraint"

let pp_event ppf = function
  | Taint_bunch { seq; anchor; ranges; tainted_args; sites } ->
      Fmt.pf ppf "taint: bunch %d bytes %a (anchor %d) consumed in [%s]%s" seq pp_ranges
        ranges anchor
        (String.concat "," sites)
        (match tainted_args with
        | [] -> ""
        | xs -> "; tainted args " ^ String.concat "," (List.map string_of_int xs))
  | Branch_forced { func; pc; preferred_taken } ->
      Fmt.pf ppf "symex: branch %s@%d forced to %s (preferred %s refuted)" func pc
        (if preferred_taken then "fall-through" else "taken")
        (if preferred_taken then "taken" else "fall-through")
  | Loop_retry { func; pc; granted; theta } ->
      Fmt.pf ppf "symex: loop %s@%d granted iteration %d/%d" func pc granted theta
  | Path_pruned { func; pc } ->
      Fmt.pf ppf "symex: state pruned at %s@%d (both directions unsat)" func pc
  | Bunch_pinned { seq; file_pos; nbytes; args_replayed } ->
      Fmt.pf ppf "combine: bunch %d pinned at offset %d (%d byte pin%s, %d replayed arg%s)"
        seq file_pos nbytes
        (if nbytes = 1 then "" else "s")
        args_replayed
        (if args_replayed = 1 then "" else "s")
  | Conflict { seq; core } ->
      Fmt.pf ppf "combine: CONFLICT pinning bunch %d (%d-constraint core)" seq
        (List.length core)
  | Crash_site { func; pc; fault; in_ell } ->
      Fmt.pf ppf "verify: crash %s at %s@%d (%s)" fault func pc
        (if in_ell then "inside ℓ" else "outside ℓ")
  | Rung { rung; failure } -> Fmt.pf ppf "ladder: %s after %S" rung failure

(* -- binary codec ------------------------------------------------------- *)

(* A tag byte per event and origin, fields in declaration order, laid out
   by [Wire].  The blob is itself a string inside the OPR3 record, so its
   layout can evolve with the leading version byte. *)

let codec_version = 'p' (* provenance codec v1 *)

module W = Octo_util.Wire

let write_origin b = function
  | Bunch_byte { bunch; off; value } ->
      W.put_char b 'b';
      List.iter (W.put_int b) [ bunch; off; value ]
  | Replayed_arg { bunch; arg; value } ->
      W.put_char b 'a';
      List.iter (W.put_int b) [ bunch; arg; value ]
  | Path_constraint -> W.put_char b 't'

let write_event b = function
  | Taint_bunch { seq; anchor; ranges; tainted_args; sites } ->
      W.put_char b 'B';
      W.put_int b seq;
      W.put_int b anchor;
      W.put_list b
        (fun b (lo, hi) ->
          W.put_int b lo;
          W.put_int b hi)
        ranges;
      W.put_list b W.put_int tainted_args;
      W.put_list b W.put_string sites
  | Branch_forced { func; pc; preferred_taken } ->
      W.put_char b 'F';
      W.put_string b func;
      W.put_int b pc;
      W.put_bool b preferred_taken
  | Loop_retry { func; pc; granted; theta } ->
      W.put_char b 'L';
      W.put_string b func;
      List.iter (W.put_int b) [ pc; granted; theta ]
  | Path_pruned { func; pc } ->
      W.put_char b 'P';
      W.put_string b func;
      W.put_int b pc
  | Bunch_pinned { seq; file_pos; nbytes; args_replayed } ->
      W.put_char b 'N';
      List.iter (W.put_int b) [ seq; file_pos; nbytes; args_replayed ]
  | Conflict { seq; core } ->
      W.put_char b 'C';
      W.put_int b seq;
      W.put_list b
        (fun b { origin; cond } ->
          write_origin b origin;
          W.put_string b cond)
        core
  | Crash_site { func; pc; fault; in_ell } ->
      W.put_char b 'X';
      W.put_string b func;
      W.put_int b pc;
      W.put_string b fault;
      W.put_bool b in_ell
  | Rung { rung; failure } ->
      W.put_char b 'R';
      W.put_string b rung;
      W.put_string b failure

let encode (t : t) : string =
  let b = Buffer.create 256 in
  W.put_char b codec_version;
  W.put_int b t.dropped;
  W.put_list b write_event t.events;
  Buffer.contents b

(* Sequenced lets throughout: the reads must consume the stream in write
   order. *)
let read_origin r =
  match W.get_char r with
  | 'b' ->
      let bunch = W.get_int r in
      let off = W.get_int r in
      let value = W.get_int r in
      Bunch_byte { bunch; off; value }
  | 'a' ->
      let bunch = W.get_int r in
      let arg = W.get_int r in
      let value = W.get_int r in
      Replayed_arg { bunch; arg; value }
  | 't' -> Path_constraint
  | _ -> W.fail ()

let read_event r =
  match W.get_char r with
  | 'B' ->
      let seq = W.get_int r in
      let anchor = W.get_int r in
      let ranges =
        W.get_list r (fun r ->
            let lo = W.get_int r in
            let hi = W.get_int r in
            (lo, hi))
      in
      let tainted_args = W.get_list r W.get_int in
      let sites = W.get_list r W.get_string in
      Taint_bunch { seq; anchor; ranges; tainted_args; sites }
  | 'F' ->
      let func = W.get_string r in
      let pc = W.get_int r in
      let preferred_taken = W.get_bool r in
      Branch_forced { func; pc; preferred_taken }
  | 'L' ->
      let func = W.get_string r in
      let pc = W.get_int r in
      let granted = W.get_int r in
      let theta = W.get_int r in
      Loop_retry { func; pc; granted; theta }
  | 'P' ->
      let func = W.get_string r in
      let pc = W.get_int r in
      Path_pruned { func; pc }
  | 'N' ->
      let seq = W.get_int r in
      let file_pos = W.get_int r in
      let nbytes = W.get_int r in
      let args_replayed = W.get_int r in
      Bunch_pinned { seq; file_pos; nbytes; args_replayed }
  | 'C' ->
      let seq = W.get_int r in
      let core =
        W.get_list r (fun r ->
            let origin = read_origin r in
            let cond = W.get_string r in
            { origin; cond })
      in
      Conflict { seq; core }
  | 'X' ->
      let func = W.get_string r in
      let pc = W.get_int r in
      let fault = W.get_string r in
      let in_ell = W.get_bool r in
      Crash_site { func; pc; fault; in_ell }
  | 'R' ->
      let rung = W.get_string r in
      let failure = W.get_string r in
      Rung { rung; failure }
  | _ -> W.fail ()

let decode (s : string) : t option =
  W.decode s (fun r ->
      if W.get_char r <> codec_version then W.fail ();
      let dropped = W.get_int r in
      if dropped < 0 then W.fail ();
      let events = W.get_list r read_event in
      { events; dropped })
