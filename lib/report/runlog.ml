(* One journaled, resumable verification run.

   A run's durable state is one journal file, PATH, fsynced per append:
   one OPR3 record per settled pair, one OQR1 record per pair set aside
   after its retry budget and, when asked for, one OTL1 run-health
   sample per telemetry interval.

   This module owns that layout and every rule about it: a directory, or
   a PATH.quarantine or PATH.telemetry left by a removed layout, is
   refused; a fresh run refuses to overwrite PATH (the check comes before
   PATH is created, so a refusal leaves nothing behind); a resumed run
   appends to it, reuses a journaled verdict only under the same content
   key, skips labels already quarantined, and continues the telemetry
   series from its last sample; and wherever a label has several records
   of one kind, the last one wins.  verify-all, scan, verify, explain,
   journal, report and the chaos harness all go through it. *)

module Journal = Octo_util.Journal
module Telemetry = Octo_util.Telemetry
module Faultinject = Octo_util.Faultinject

(* -- layout ------------------------------------------------------------ *)

(* The seed of a run's journal-write fault injector, from its chaos seed. *)
let journal_seed seed = seed lxor 0x6A09E667

(* The side files of removed layouts, with the records they held. *)
let removed_side_files =
  [ (".quarantine", "quarantine records"); (".telemetry", "telemetry samples") ]

(* A directory, or a side file beside the journal, is a removed layout:
   it is refused, never read or written, so no record of it is silently
   ignored.  Side files and journals start with the same 10-byte header,
   hence the merge command. *)
let check_layout path =
  if Sys.file_exists path && Sys.is_directory path then
    Error
      (Printf.sprintf
         "journal %s is a directory: sharded journal directories (--shards) were removed; \
          a run's journal is one file"
         path)
  else
    match List.find_opt (fun (ext, _) -> Sys.file_exists (path ^ ext)) removed_side_files with
    | Some (ext, records) ->
        let side = path ^ ext in
        Error
          (Printf.sprintf
             "%s is a removed layout: %s now live in the journal %s itself; merge them \
              with `tail -c +11 %s >> %s` (or rename it to %s when %s does not exist), \
              then remove it"
             side records path side path path path)
    | None -> Ok ()

(* -- reading records --------------------------------------------------- *)

type tables = {
  tverdicts : (string, string * Octopocs.report) Hashtbl.t;  (** last per label *)
  tquarantined : (string, Octopocs.quarantine) Hashtbl.t;  (** last per label *)
  tsamples : Telemetry.sample list;  (** in append order *)
  tundecodable : int;  (** intact frames no codec decodes *)
}

(* One pass over a journal's records: verdict and quarantine records by
   label (the last of each kind wins), telemetry samples in append
   order, and the count of intact frames no codec decodes. *)
let tables records =
  let tverdicts = Hashtbl.create 31 and tquarantined = Hashtbl.create 7 in
  let samples = ref [] and tundecodable = ref 0 in
  List.iter
    (fun payload ->
      match Octopocs.decode_record payload with
      | Some (Octopocs.Verdict_record (label, key, r)) -> Hashtbl.replace tverdicts label (key, r)
      | Some (Quarantine_record q) -> Hashtbl.replace tquarantined q.qlabel q
      | Some (Sample_record s) -> samples := s :: !samples
      | None -> incr tundecodable)
    records;
  { tverdicts; tquarantined; tsamples = List.rev !samples; tundecodable = !tundecodable }

(* -- loading ----------------------------------------------------------- *)

type t = {
  verdicts : (string * string * Octopocs.report) list;
      (** [(label, key, report)], last record per label, in
          [Octopocs.sort_dump] order *)
  undecodable : int;  (** intact frames no codec decodes *)
  torn : bool;  (** the journal's torn or corrupt tail was dropped *)
  quarantine : Octopocs.quarantine list;
      (** last record per label, in [Octopocs.compare_labels] order *)
  samples : Telemetry.sample list;  (** telemetry samples, in append order *)
}

(* [load journal] reads the journal.  [Error] names a missing journal or
   a removed layout. *)
let load journal =
  match check_layout journal with
  | Error _ as e -> e
  | Ok () when not (Sys.file_exists journal) ->
      Error (Printf.sprintf "no such journal: %s" journal)
  | Ok () ->
      let r = Journal.replay journal in
      let t = tables r.Journal.records in
      Ok
        {
          verdicts =
            Octopocs.sort_dump (Hashtbl.fold (fun l (k, v) acc -> (l, k, v) :: acc) t.tverdicts []);
          undecodable = t.tundecodable;
          torn = r.Journal.torn;
          quarantine =
            Hashtbl.fold (fun _ q acc -> q :: acc) t.tquarantined []
            |> List.sort (fun (a : Octopocs.quarantine) b ->
                   Octopocs.compare_labels a.qlabel b.qlabel);
          samples = t.tsamples;
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

(* An output path of a run that cannot be created; the message reads
   "PATH: reason". *)
exception Cannot_write of string

(* [open_journal ~inject ~resume path] opens the run's journal writer,
   replaying the journal on resume, with the tables of its records.  A
   path that cannot be opened raises [Cannot_write] once the journal, if
   this call created it, is removed, so a corrected re-run is not refused
   as a clobber. *)
let open_journal ~inject ~resume path =
  let created = not (Sys.file_exists path) in
  let cannot_write msg =
    if created && Sys.file_exists path then Sys.remove path;
    raise (Cannot_write msg)
  in
  match
    if resume then Journal.open_resume ~inject ~path ()
    else (Journal.create ~inject ~path (), [])
  with
  | w, records -> (w, tables records)
  | exception Unix.Unix_error (e, _, p) ->
      cannot_write (Printf.sprintf "%s: %s" p (Unix.error_message e))
  | exception Sys_error msg -> cannot_write msg

(* [run ... next] verifies the entries [next] hands out through
   [Octopocs.run_stream] and reports every pair to [on_row], from the
   calling domain.  Settled and quarantined pairs are appended to
   [journal] (without it they are reported but not recorded), and with
   [telemetry] so are run-health samples (none without [journal]); their
   appends draw no journal-write fault, so a seeded tear lands on the
   same verdict or quarantine record with or without them.  [on_sample]
   sees every sample too, from the calling domain, journal or not; the
   sampler runs only when one of the two wants its samples.  [inject]
   arms the journal's journal-write site.  Without [resume] an existing
   journal is an [Error] and nothing is created, and a path that cannot
   be opened raises [Cannot_write] ({!open_journal}); with [resume] the
   journal is reopened for appending, a torn tail truncated, entries
   already quarantined, or settled under the same key, are reported
   ([prior], [cached]) instead of run, and the samples continue from the
   last one journaled.  With [fail_fast] nothing is handed out once a
   Failure has settled; entries never handed out get no row and no
   record. *)
let run ?journal ?(telemetry = false) ?on_sample ?(resume = false) ?(inject = Faultinject.none)
    ?jobs ?retries ?window ?isolate ?limits ?pre_run ?(fail_fast = false)
    ?(on_row = fun _ _ -> ()) next =
  let opened =
    match journal with
    | None -> Ok (None, tables [])
    | Some path -> (
        match check_layout path with
        | Error _ as e -> e
        | Ok () when (not resume) && Sys.file_exists path ->
            Error
              (Printf.sprintf
                 "journal %s already exists; pass --resume to continue it or remove it first" path)
        | Ok () ->
            let w, prior = open_journal ~inject ~resume path in
            Ok (Some w, prior))
  in
  match opened with
  | Error _ as e -> e
  | Ok (writer, prior) ->
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
              match Hashtbl.find_opt prior.tquarantined e.label with
              | Some q ->
                  on_row e (Quarantined { q; prior = true });
                  next_job ()
              | None -> (
                  match Hashtbl.find_opt prior.tverdicts e.label with
                  | Some (k, r) when k = e.key ->
                      on_row e (Settled { r; cached = true });
                      next_job ()
                  | _ ->
                      Mutex.protect lock (fun () -> Hashtbl.add inflight e.label e);
                      Some e.job))
      in
      let journaled = if telemetry then writer else None in
      let sampling = Option.is_some journaled || Option.is_some on_sample in
      if sampling then begin
        let from = List.fold_left (fun _ s -> Some s) None prior.tsamples in
        Telemetry.enable ?from (fun s ->
            Option.iter
              (fun w -> Journal.append ~armed:false w (Telemetry.encode_sample s))
              journaled;
            Option.iter (fun f -> f s) on_sample)
      end;
      Fun.protect
        ~finally:(fun () ->
          if sampling then Telemetry.disable ();
          Option.iter Journal.close writer)
        (fun () ->
          Ok
            (Octopocs.run_stream ?jobs ?retries ?window ?isolate ?limits ?pre_run ~on_settle
               ~on_quarantine next_job))
