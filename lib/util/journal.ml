(** Append-only write-ahead journal for batch verification.

    A journal is a header followed by length-prefixed, CRC-framed records:

    {v
      "OCTOJRNL1\n"                                   10-byte header
      [ len:u32le ][ crc32(payload):u32le ][ payload ]  repeated
    v}

    Records are opaque byte strings (the caller owns the payload encoding);
    the framing makes two guarantees:

    - {b Durability}: {!append} writes the whole frame with one [write] and
      fsyncs before returning (unless the writer was opened with
      [~fsync:false]), so an acknowledged record survives the process dying
      immediately afterwards.
    - {b Torn-write tolerance}: a crash mid-append leaves a truncated or
      corrupt trailing frame.  {!replay} detects it (short frame header,
      short payload, CRC mismatch, or an absurd length) and drops it —
      replay never raises on a torn tail, and every record before the tear
      is recovered.  {!open_resume} additionally truncates the file back to
      its last valid frame so subsequent appends re-form a clean tail.

    A corrupt record is treated exactly like a torn one: it ends the valid
    prefix.  This is the standard WAL recovery rule — nothing after the
    first bad frame can be trusted, because frame boundaries are gone.

    Writers are thread-safe (appends serialize on an internal mutex).  A
    run keeps one journal file for its verdict, quarantine and telemetry
    records; the streaming driver appends to it from its calling domain as
    pairs settle or are set aside, and as the sampler ticks.

    Fault injection: the {!Faultinject.Journal_write} site models a crash
    mid-append — when it fires, only a prefix of the frame is written, the
    writer is poisoned (subsequent appends become no-ops, as if the process
    were dead), and {!Faultinject.Injected} is raised. *)

let header = "OCTOJRNL1\n"

(* The frame layout and its CRC live in [Wire]. *)
let crc32 = Wire.crc32

(* ------------------------------------------------------------------ *)
(* Replay. *)

type replay = {
  records : string list;  (** every intact record, in append order *)
  valid_bytes : int;
      (** length of the valid prefix (header + intact frames); the offset
          {!open_resume} truncates to *)
  torn : bool;  (** a truncated or corrupt trailing frame was dropped *)
}

let parse data =
  let n = String.length data in
  let hl = String.length header in
  if n < hl || String.sub data 0 hl <> header then
    (* No (or a half-written) header: nothing recoverable.  A non-empty
       file that is not a journal counts as torn so callers can tell the
       difference from a genuinely fresh journal. *)
    { records = []; valid_bytes = 0; torn = n > 0 }
  else begin
    let rec go pos records =
      if pos = n then { records = List.rev records; valid_bytes = pos; torn = false }
      else
        match Wire.unframe data pos with
        | Ok (payload, next) -> go next (payload :: records)
        | Error _ -> { records = List.rev records; valid_bytes = pos; torn = true }
    in
    go hl []
  end

(** [replay path] scans the journal tolerantly.  A missing file is an
    empty journal; a torn or corrupt tail is dropped, never raised on. *)
let replay path =
  if not (Sys.file_exists path) then { records = []; valid_bytes = 0; torn = false }
  else begin
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    parse data
  end

(* ------------------------------------------------------------------ *)
(* Writer. *)

type writer = {
  fd : Unix.file_descr;
  wlock : Mutex.t;
  winject : Faultinject.t;
  wfsync : bool;
  mutable wclosed : bool;
  mutable poisoned : bool;
      (* set after an injected torn write: the simulated process is dead,
         so later appends silently go nowhere (exactly what a real crash
         would leave behind) *)
}

let write_all fd bytes =
  let n = Bytes.length bytes in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd bytes !off (n - !off)
  done

let mk_writer ?(inject = Faultinject.none) ?(fsync = true) fd =
  { fd; wlock = Mutex.create (); winject = inject; wfsync = fsync; wclosed = false;
    poisoned = false }

(** [create ?inject ?fsync ~path ()] starts a fresh journal, truncating any
    existing file at [path]. *)
let create ?inject ?fsync ~path () =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd (Bytes.of_string header);
  Unix.fsync fd;
  mk_writer ?inject ?fsync fd

(** [open_resume ?inject ?fsync ~path ()] reopens an existing journal for
    appending: replays it, truncates a torn tail back to the last valid
    frame, and returns the writer positioned at the end together with the
    recovered records.  A missing file starts a fresh journal. *)
let open_resume ?inject ?fsync ~path () =
  let r = replay path in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  if r.valid_bytes = 0 then begin
    (* Fresh, empty, or headerless-garbage file: start over. *)
    Unix.ftruncate fd 0;
    write_all fd (Bytes.of_string header)
  end
  else begin
    Unix.ftruncate fd r.valid_bytes;
    ignore (Unix.lseek fd r.valid_bytes Unix.SEEK_SET)
  end;
  Unix.fsync fd;
  (mk_writer ?inject ?fsync fd, r.records)

(** [append ?armed w payload] durably appends one record: a single [write]
    of the whole frame, then fsync.  Thread-safe.  Raises
    [Invalid_argument] on a closed writer; raises {!Faultinject.Injected}
    when the [journal-write] torn-write site fires (leaving a half-written
    frame and a poisoned writer behind, like a crash would).  An append
    with [~armed:false] draws nothing from that site, so records whose
    number depends on timing (telemetry samples) leave a seeded fault
    schedule alone. *)
let append ?(armed = true) w payload =
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () ->
      if w.wclosed then invalid_arg "Journal.append: writer is closed";
      if not w.poisoned then begin
        let b = Bytes.unsafe_of_string (Wire.frame payload) in
        if armed && Faultinject.fire w.winject Faultinject.Journal_write then begin
          let cut = max 1 (Bytes.length b / 2) in
          write_all w.fd (Bytes.sub b 0 cut);
          w.poisoned <- true;
          raise (Faultinject.Injected "journal-write: torn append")
        end;
        write_all w.fd b;
        if w.wfsync then Unix.fsync w.fd
      end)

(** [close w] fsyncs and closes the fd.  Idempotent. *)
let close w =
  Mutex.lock w.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wlock)
    (fun () ->
      if not w.wclosed then begin
        w.wclosed <- true;
        (try Unix.fsync w.fd with Unix.Unix_error _ -> ());
        Unix.close w.fd
      end)
