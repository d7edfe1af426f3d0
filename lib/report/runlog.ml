(* One journaled, resumable verification run.

   A run's durable state is one journal file, with its telemetry beside
   it when asked for:

     PATH              one OPR3 record per settled pair and one OQR1 record
                       per pair set aside after its retry budget, fsynced
                       per append
     PATH.telemetry    run-health samples (OTL1), when asked for

   This module owns that layout and every rule about it: a directory, or a
   PATH.quarantine left by the removed two-file layout, is refused; a
   fresh run refuses to overwrite either file (both are checked before
   either is created, so a refusal leaves nothing behind); a resumed run
   appends to them, reuses a journaled verdict only under the same content
   key, and skips labels already quarantined; and wherever a label has
   several records of one kind, the last one wins.  verify-all, scan,
   verify, explain, journal, report and the chaos harness all go through
   it. *)

module Journal = Octo_util.Journal
module Telemetry = Octo_util.Telemetry
module Faultinject = Octo_util.Faultinject

(* -- layout ------------------------------------------------------------ *)

let telemetry_path journal = journal ^ ".telemetry"

(* The seed of a run's journal-write fault injector, from its chaos seed. *)
let journal_seed seed = seed lxor 0x6A09E667

(* A directory, or a quarantine file beside the journal, is a removed
   layout: it is refused, never read or written, so no record of it is
   silently ignored.  Both quarantine files and journals start with the
   same 10-byte header, hence the merge command. *)
let check_layout path =
  let legacy = path ^ ".quarantine" in
  if Sys.file_exists path && Sys.is_directory path then
    Error
      (Printf.sprintf
         "journal %s is a directory: sharded journal directories (--shards) were removed; \
          a run's journal is one file"
         path)
  else if Sys.file_exists legacy then
    Error
      (Printf.sprintf
         "%s is a removed layout: quarantine records now live in the journal %s itself; \
          merge them with `tail -c +11 %s >> %s` (or rename it to %s when %s does not \
          exist), then remove it"
         legacy path legacy path path path)
  else Ok ()

(* -- last record per label --------------------------------------------- *)

(* Verdict and quarantine records by label (the last of each kind wins),
   plus the count of intact frames neither codec decodes. *)
let tables records =
  let verdicts : (string, string * Octopocs.report) Hashtbl.t = Hashtbl.create 31 in
  let quarantined : (string, Octopocs.quarantine) Hashtbl.t = Hashtbl.create 7 in
  let undecodable = ref 0 in
  List.iter
    (fun payload ->
      match Octopocs.decode_result payload with
      | Some (label, key, r) -> Hashtbl.replace verdicts label (key, r)
      | None -> (
          match Octopocs.decode_quarantine payload with
          | Some q -> Hashtbl.replace quarantined q.qlabel q
          | None -> incr undecodable))
    records;
  (verdicts, quarantined, !undecodable)

(* -- loading ----------------------------------------------------------- *)

type t = {
  verdicts : (string * string * Octopocs.report) list;
      (** [(label, key, report)], last record per label, in
          [Octopocs.sort_dump] order *)
  undecodable : int;  (** intact frames neither codec decodes *)
  torn : bool;  (** the journal's torn or corrupt tail was dropped *)
  quarantine : Octopocs.quarantine list;  (** last record per label, by label *)
  telemetry : Telemetry.replay option;  (** when [load] was given a file *)
}

(* [load ~journal ?telemetry ()] reads the journal and [telemetry] when
   given (a missing telemetry file reads as no samples).  [Error] names a
   missing journal or a removed layout. *)
let load ~journal ?telemetry () =
  match check_layout journal with
  | Error _ as e -> e
  | Ok () when not (Sys.file_exists journal) ->
      Error (Printf.sprintf "no such journal: %s" journal)
  | Ok () ->
      let r = Journal.replay journal in
      let vt, qt, undecodable = tables r.Journal.records in
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

(* -- running ----------------------------------------------------------- *)

(* One pair of a run: its label, content key, expected verdict class
   (when the source knows it) and job. *)
type entry = {
  label : string;
  key : string;
  expected : string option;
  job : Octopocs.job;
}

(* [probe] lends its digests to the key (see [Octopocs.content_key]): a
   caller entering one S against many Ts digests S and the PoC once. *)
let entry ~config ?ell ?expected ?probe ~label ~s ~t ~poc () =
  {
    label;
    key = Octopocs.content_key ~config ?ell ?probe ~s ~t ~poc ();
    expected;
    job = Octopocs.job ~config ?ell ~label ~s ~t ~poc ();
  }

(* What became of one pair: a verdict, fresh or reused from the journal
   ([cached]), or a quarantine record, this run's or a previous run's
   ([prior]). *)
type row =
  | Settled of { r : Octopocs.report; cached : bool }
  | Quarantined of { q : Octopocs.quarantine; prior : bool }

(* An output path of a run that cannot be created; the message reads
   "PATH: reason". *)
exception Cannot_write of string

(* [open_files ~inject ~resume ~journal ~telemetry] opens the run's
   journal writer (replaying it on resume, with its prior verdict and
   quarantine tables) and starts its telemetry.  A path that cannot be
   opened raises [Cannot_write] once the files created by then are
   removed, so a corrected re-run is not refused as a clobber. *)
let open_files ~inject ~resume ~journal ~telemetry =
  let created =
    List.filter (fun p -> not (Sys.file_exists p)) (List.filter_map Fun.id [ journal; telemetry ])
  in
  let opened () =
    let writer, prior =
      match journal with
      | None -> (None, tables [])
      | Some path when resume ->
          let w, records = Journal.open_resume ~inject ~path () in
          (Some w, tables records)
      | Some path -> (Some (Journal.create ~inject ~path ()), tables [])
    in
    (try Option.iter (fun path -> Telemetry.enable ~path ()) telemetry
     with e ->
       Option.iter Journal.close writer;
       raise e);
    (writer, prior)
  in
  let cannot_write msg =
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) created;
    raise (Cannot_write msg)
  in
  match opened () with
  | opened -> opened
  | exception Unix.Unix_error (e, _, path) ->
      cannot_write (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | exception Sys_error msg -> cannot_write msg

(* [run ... next] verifies the entries [next] hands out through
   [Octopocs.run_stream] and reports every pair to [on_row], from the
   calling domain.  Settled and quarantined pairs are appended to
   [journal] (without it they are reported but not recorded); [telemetry]
   samples run health into that file.  [inject] arms the journal's
   journal-write site.  Without [resume] an existing file at either path
   is an [Error] and nothing is created, and a path that cannot be
   opened raises [Cannot_write] ({!open_files}); with [resume] the files
   are reopened for appending, a torn tail truncated, and entries
   already quarantined, or settled under the same key, are reported
   ([prior], [cached]) instead of run.  With [fail_fast] nothing is handed out once a Failure
   has settled; entries never handed out get no row and no record. *)
let run ?journal ?telemetry ?(resume = false) ?(inject = Faultinject.none) ?jobs ?retries
    ?window ?isolate ?limits ?mem_watermark_mb ?pre_run ?(fail_fast = false)
    ?(on_row = fun _ _ -> ()) next =
  let files =
    List.filter_map
      (fun (what, p) -> Option.map (fun p -> (what, p)) p)
      [ ("journal", journal); ("telemetry journal", telemetry) ]
  in
  let clobbered = if resume then None else List.find_opt (fun (_, p) -> Sys.file_exists p) files in
  let opened =
    match (Option.fold ~none:(Ok ()) ~some:check_layout journal, clobbered) with
    | (Error _ as e), _ -> e
    | Ok (), Some (what, p) ->
        Error
          (Printf.sprintf "%s %s already exists; pass --resume to continue it or remove it first"
             what p)
    | Ok (), None -> Ok (open_files ~inject ~resume ~journal ~telemetry)
  in
  match opened with
  | Error _ as e -> e
  | Ok (writer, (settled_prior, quarantined_prior, _)) ->
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
        Option.iter (fun w -> Journal.append w (Octopocs.encode_quarantine q)) writer
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
          Option.iter Journal.close writer)
        (fun () ->
          Ok
            (Octopocs.run_stream ?jobs ?retries ?window ?isolate ?limits ?mem_watermark_mb
               ?pre_run ~on_settle ~on_quarantine next_job))
