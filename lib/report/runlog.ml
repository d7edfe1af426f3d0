(* One journaled, resumable verification run.

   A run's durable state is up to three files side by side:

     PATH              verdict journal: one OPR3 record per settled pair,
                       fsynced per append
     PATH.quarantine   one OQR1 record per pair set aside after its retry
                       budget
     PATH.telemetry    run-health samples (OTL1), when asked for

   This module owns that layout and every rule about it: a directory is
   refused as a journal; a fresh run refuses to overwrite any of the
   three files (all are checked before any is created, so a refusal
   leaves nothing behind); a resumed run appends to them, reuses a
   journaled verdict only under the same content key, and skips labels
   already quarantined; and wherever a label has several records, the
   last one wins.  verify-all, scan, verify, explain, journal, report and
   the chaos harness all go through it. *)

module Journal = Octo_util.Journal
module Telemetry = Octo_util.Telemetry
module Faultinject = Octo_util.Faultinject

(* -- layout ------------------------------------------------------------ *)

let quarantine_path journal = journal ^ ".quarantine"
let telemetry_path journal = journal ^ ".telemetry"

(* The seed of a run's journal-write fault injector, from its chaos seed. *)
let journal_seed seed = seed lxor 0x6A09E667

(* A journal path naming a directory is the removed sharded layout: it
   is refused, never read or written as a journal. *)
let directory_error path =
  Printf.sprintf
    "journal %s is a directory: sharded journal directories (--shards) were removed; \
     a run's journal is one file, with PATH.quarantine beside it"
    path

(* -- last record per label --------------------------------------------- *)

(* Verdict records by label (the last one wins), plus the count of
   intact frames that do not decode. *)
let verdict_table records =
  let tbl : (string, string * Octopocs.report) Hashtbl.t = Hashtbl.create 31 in
  let undecodable = ref 0 in
  List.iter
    (fun payload ->
      match Octopocs.decode_result payload with
      | Some (label, key, r) -> Hashtbl.replace tbl label (key, r)
      | None -> incr undecodable)
    records;
  (tbl, !undecodable)

let quarantine_table records =
  let tbl : (string, Octopocs.quarantine) Hashtbl.t = Hashtbl.create 7 in
  List.iter
    (fun payload ->
      match Octopocs.decode_quarantine payload with
      | Some q -> Hashtbl.replace tbl q.Octopocs.qlabel q
      | None -> ())
    records;
  tbl

let is_quarantine payload = Octopocs.decode_quarantine payload <> None

(* -- loading ----------------------------------------------------------- *)

type t = {
  verdicts : (string * string * Octopocs.report) list;
      (** [(label, key, report)], last record per label, in
          [Octopocs.sort_dump] order *)
  undecodable : int;  (** intact verdict frames that do not decode *)
  torn : bool;  (** the verdict journal's torn or corrupt tail was dropped *)
  quarantine : Octopocs.quarantine list;  (** last record per label, by label *)
  telemetry : Telemetry.replay option;  (** when [load] was given a file *)
}

(* [load ~journal ?telemetry ()] reads the verdict journal, PATH.quarantine
   when it exists, and [telemetry] when given (a missing telemetry file
   reads as no samples).  [Error] names a missing journal or a directory. *)
let load ~journal ?telemetry () =
  if not (Sys.file_exists journal) then Error (Printf.sprintf "no such journal: %s" journal)
  else if Sys.is_directory journal then Error (directory_error journal)
  else begin
    let r = Journal.replay journal in
    let vt, undecodable = verdict_table r.Journal.records in
    let qt = quarantine_table (Journal.replay (quarantine_path journal)).Journal.records in
    Ok
      {
        verdicts = Octopocs.sort_dump (Hashtbl.fold (fun l (k, v) acc -> (l, k, v) :: acc) vt []);
        undecodable;
        torn = r.Journal.torn;
        quarantine =
          Hashtbl.fold (fun _ q acc -> q :: acc) qt []
          |> List.sort (fun (a : Octopocs.quarantine) b -> compare a.qlabel b.qlabel);
        telemetry = Option.map Telemetry.replay telemetry;
      }
  end

(* -- running ----------------------------------------------------------- *)

(* One pair of a run: its label, content key, expected verdict class
   (when the source knows it) and job. *)
type entry = {
  label : string;
  key : string;
  expected : string option;
  job : Octopocs.job;
}

let entry ~config ?ell ?expected ~label ~s ~t ~poc () =
  {
    label;
    key = Octopocs.content_key ~config ?ell ~s ~t ~poc ();
    expected;
    job = Octopocs.job ~config ?ell ~label ~s ~t ~poc ();
  }

(* What became of one pair: a verdict, fresh or reused from the journal
   ([cached]), or a quarantine record, this run's or a previous run's
   ([prior]). *)
type row =
  | Settled of { r : Octopocs.report; cached : bool }
  | Quarantined of { q : Octopocs.quarantine; prior : bool }

(* [run ... next] verifies the entries [next] hands out through
   [Octopocs.run_stream] and reports every pair to [on_row], from the
   calling domain.  [quarantine] overrides PATH.quarantine (with neither
   it nor [journal], quarantined pairs are reported but not recorded);
   [telemetry] samples run health into that file.  [inject] arms the
   verdict journal's journal-write site; the quarantine journal is never
   armed.  Without [resume] an existing file at any of the three paths is
   an [Error] and nothing is created; with it the files are reopened for
   appending, torn tails truncated, and entries already quarantined, or
   settled under the same key, are reported ([prior], [cached]) instead
   of run.  With [fail_fast] nothing is handed out once a Failure has
   settled; entries never handed out get no row and no record. *)
let run ?journal ?quarantine ?telemetry ?(resume = false) ?(inject = Faultinject.none) ?jobs
    ?retries ?window ?isolate ?limits ?mem_watermark_mb ?pre_run ?(fail_fast = false)
    ?(on_row = fun _ _ -> ()) next =
  let qpath = match quarantine with Some p -> Some p | None -> Option.map quarantine_path journal in
  let files =
    List.filter_map
      (fun (what, p) -> Option.map (fun p -> (what, p)) p)
      [ ("journal", journal); ("quarantine journal", qpath); ("telemetry journal", telemetry) ]
  in
  let clobbered = if resume then None else List.find_opt (fun (_, p) -> Sys.file_exists p) files in
  match (journal, clobbered) with
  | Some path, _ when Sys.file_exists path && Sys.is_directory path -> Error (directory_error path)
  | _, Some (what, p) ->
      Error
        (Printf.sprintf "%s %s already exists; pass --resume to continue it or remove it first"
           what p)
  | _, None ->
      let writer, settled_prior =
        match journal with
        | None -> (None, Hashtbl.create 1)
        | Some path when resume ->
            let w, records = Journal.open_resume ~inject ~path () in
            (Some w, fst (verdict_table records))
        | Some path -> (Some (Journal.create ~inject ~path ()), Hashtbl.create 1)
      in
      (* A CRC-valid frame that is not an OQR1 record (a crash half through
         an overwrite can leave one) ends the quarantine journal's valid
         prefix and is truncated away on resume, like a torn frame. *)
      let qwriter, quarantined_prior =
        match qpath with
        | None -> (None, Hashtbl.create 1)
        | Some path when resume ->
            let w, records = Journal.open_resume ~validate:is_quarantine ~path () in
            (Some w, quarantine_table records)
        | Some path -> (Some (Journal.create ~path ()), Hashtbl.create 1)
      in
      Option.iter (fun path -> Telemetry.enable ~path ()) telemetry;
      (* The in-flight table carries each entry from pull to settle and
         never exceeds the window. *)
      let lock = Mutex.create () in
      let inflight : (string, entry) Hashtbl.t = Hashtbl.create 31 in
      let take label =
        Mutex.protect lock (fun () ->
            let e = Hashtbl.find inflight label in
            Hashtbl.remove inflight label;
            e)
      in
      let failed = Atomic.make false in
      let on_settle j (r : Octopocs.report) =
        let e = take (Octopocs.job_label j) in
        (match r.verdict with Octopocs.Failure _ -> Atomic.set failed true | _ -> ());
        on_row e (Settled { r; cached = false });
        (* Journal last: an injected torn append raises (and poisons the
           writer, as a crash would), and the row must still be seen. *)
        Option.iter
          (fun w -> Journal.append w (Octopocs.encode_result ~label:e.label ~key:e.key r))
          writer
      in
      let on_quarantine (q : Octopocs.quarantine) =
        on_row (take q.qlabel) (Quarantined { q; prior = false });
        Option.iter (fun w -> Journal.append w (Octopocs.encode_quarantine q)) qwriter
      in
      (* Quarantined labels are set aside, not re-run: their fault schedule
         is deterministic, so a retry would only quarantine them again.
         Tail-recursive, so a fully cached resume walks the whole source
         without growing the stack or the heap. *)
      let rec next_job () =
        if fail_fast && Atomic.get failed then None
        else
          match next () with
          | None -> None
          | Some e -> (
              match Hashtbl.find_opt quarantined_prior e.label with
              | Some q ->
                  on_row e (Quarantined { q; prior = true });
                  next_job ()
              | None -> (
                  match Hashtbl.find_opt settled_prior e.label with
                  | Some (k, r) when k = e.key ->
                      on_row e (Settled { r; cached = true });
                      next_job ()
                  | _ ->
                      Mutex.protect lock (fun () -> Hashtbl.add inflight e.label e);
                      Some e.job))
      in
      Fun.protect
        ~finally:(fun () ->
          if telemetry <> None then Telemetry.disable ();
          Option.iter Journal.close writer;
          Option.iter Journal.close qwriter)
        (fun () ->
          Ok
            (Octopocs.run_stream ?jobs ?retries ?window ?isolate ?limits ?mem_watermark_mb
               ?pre_run ~on_settle ~on_quarantine next_job))
