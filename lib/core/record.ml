(* What a run writes down about a pair: its content key, the OPR3 verdict
   and OQR1 quarantine record codecs a journal holds, and the order a
   dump lists records in. *)

open Octo_vm
open Verdict
open Pipeline
module W = Octo_util.Wire

(* ------------------------------------------------------------------ *)
(* Verdict cache keys. *)

(* Every config field that can change a verdict.  [inject] is deliberately
   excluded: fault injection perturbs a run, not the pair's identity — a
   resumed chaos batch must treat the journaled verdict of a fault-afflicted
   pair as settled, exactly as the uninterrupted run would have.  The
   fourth, fifth, sixth and last slots held the symbolic file size, the
   concrete-run step budget, the solver budget and the on/off switch of
   the escalated retry when these were config fields; they keep the values
   every build has run with, so the marshalled bytes, hence every content
   key already written to a journal, stay as they were. *)
let config_fingerprint (c : config) =
  Marshal.to_string
    ( c.taint_mode,
      c.taint_granularity,
      c.symex,
      Octo_symex.Sym_state.sym_file_size,
      Interp.default_max_steps,
      solver_budget,
      c.dynamic_cfg,
      c.deadline_s,
      true )
    []

let content_key ?(config = default_config) ?ell ~(s : Isa.program) ~(t : Isa.program)
    ~(poc : string) () =
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          [
            Compile.program_digest s;
            Compile.program_digest t;
            Digest.string poc;
            Digest.string (Marshal.to_string ell []);
            Digest.string (config_fingerprint config);
          ]))

(* ------------------------------------------------------------------ *)
(* Journal record codec.

   One record per settled pair: label, cache key, and enough of the report
   to reconstruct the verdict exactly (poc' bytes included).  Artifacts
   (taint, symex stats, bunches) are run-time debugging aids, not verdict
   state, and are not persisted.  The fields are laid out by [Wire], so
   the record is binary-safe and [decode_result] is total, returning
   [None] on any malformed record (a foreign or future-versioned journal
   must not crash the reader). *)

(* OPR3 appends two tail fields to OPR2: an explicit metrics presence
   flag (OPR2 inferred presence from end-of-record, which left no room
   for anything after it) and an optional provenance blob.  OPR2 records
   no longer decode: a reader counts them undecodable, and [--resume]
   re-runs their pairs. *)
let verdict_codec_version = "OPR3"

(* A string field holding an encoded value — [Constraint_conflict]'s entry
   index and [elapsed_s]'s IEEE bits as decimal text, the provenance blob —
   rejects the record when it does not parse. *)
let parsed_string r parse = match parse (W.get_string r) with Some v -> v | None -> W.fail ()

let encode_result ~label ~key (r : report) =
  let b = Buffer.create 256 in
  W.put_magic b verdict_codec_version;
  W.put_string b label;
  W.put_string b key;
  W.put_string b r.ep;
  W.put_list b W.put_string r.ell;
  (match r.verdict with
  | Triggered { poc'; ptype } ->
      W.put_char b 'T';
      W.put_char b (match ptype with Type_I -> '1' | Type_II -> '2');
      W.put_string b poc'
  | Not_triggerable reason -> (
      W.put_char b 'N';
      match reason with
      | Ep_not_called -> W.put_char b 'e'
      | Program_dead -> W.put_char b 'd'
      | Unsat_model -> W.put_char b 'u'
      | Constraint_conflict k ->
          W.put_char b 'c';
          W.put_string b (string_of_int k))
  | Failure msg ->
      W.put_char b 'F';
      W.put_string b msg);
  W.put_list b W.put_string r.degradations;
  W.put_string b (Int64.to_string (Int64.bits_of_float r.elapsed_s));
  (* Metrics presence is explicit in OPR3 so the record can carry fields
     after it; provenance stays an optional tail — decoders treat
     end-of-record here as [provenance = None], so records written with
     collection off cost one flag byte over OPR2. *)
  W.put_option b Metrics.write_snapshot r.metrics;
  Option.iter (fun p -> W.put_string b (Provenance.encode p)) r.provenance;
  Buffer.contents b

let decode_result (s : string) : (string * string * report) option =
  W.decode s (fun r ->
      let version = W.get_magic r 4 in
      if version <> verdict_codec_version then W.fail ();
      let label = W.get_string r in
      let key = W.get_string r in
      let ep = W.get_string r in
      let ell = W.get_list r W.get_string in
      let verdict =
        match W.get_char r with
        | 'T' ->
            let ptype = match W.get_char r with '1' -> Type_I | '2' -> Type_II | _ -> W.fail () in
            Triggered { poc' = W.get_string r; ptype }
        | 'N' -> (
            match W.get_char r with
            | 'e' -> Not_triggerable Ep_not_called
            | 'd' -> Not_triggerable Program_dead
            | 'u' -> Not_triggerable Unsat_model
            | 'c' -> Not_triggerable (Constraint_conflict (parsed_string r int_of_string_opt))
            | _ -> W.fail ())
        | 'F' -> Failure (W.get_string r)
        | _ -> W.fail ()
      in
      let degradations = W.get_list r W.get_string in
      let elapsed_s = Int64.float_of_bits (parsed_string r Int64.of_string_opt) in
      let metrics = W.get_option r Metrics.read_snapshot in
      let provenance = if W.at_end r then None else Some (parsed_string r Provenance.decode) in
      ( label,
        key,
        {
          verdict;
          ep;
          ell;
          bunches = [];
          taint = None;
          symex = None;
          degradations;
          elapsed_s;
          metrics;
          provenance;
        } ))

(* ------------------------------------------------------------------ *)
(* Poison-pair quarantine. *)

type quarantine = {
  qlabel : string;
  qkey : string;
  qreason : string;  (** ["worker crashed"] or ["worker stalled"] *)
  qmessage : string;  (** printable exception of the final attempt *)
  qbacktrace : string;  (** final attempt's backtrace (may be empty) *)
  qattempts : int;  (** attempts consumed, retries included *)
}

(* Quarantine records share the journal framing, and a run's journal
   file, with verdicts but carry their own version tag, so [decode_result]
   rejects them cleanly (version mismatch -> [None]) and vice versa — one
   reader tells the two kinds apart by their magic. *)
let quarantine_codec_version = "OQR1"

let encode_quarantine (q : quarantine) =
  let b = Buffer.create 128 in
  W.put_magic b quarantine_codec_version;
  List.iter (W.put_string b) [ q.qlabel; q.qkey; q.qreason; q.qmessage; q.qbacktrace ];
  W.put_int b q.qattempts;
  Buffer.contents b

let decode_quarantine (s : string) : quarantine option =
  W.decode s (fun r ->
      if W.get_magic r 4 <> quarantine_codec_version then W.fail ();
      let qlabel = W.get_string r in
      let qkey = W.get_string r in
      let qreason = W.get_string r in
      let qmessage = W.get_string r in
      let qbacktrace = W.get_string r in
      let qattempts = W.get_int r in
      { qlabel; qkey; qreason; qmessage; qbacktrace; qattempts })

type record =
  | Verdict_record of string * string * report
  | Quarantine_record of quarantine
  | Sample_record of Octo_util.Telemetry.sample

(* One journal holds the three kinds of record; the magic says which
   decoder reads a frame. *)
let decode_record payload =
  if String.starts_with ~prefix:verdict_codec_version payload then
    Option.map (fun (label, key, r) -> Verdict_record (label, key, r)) (decode_result payload)
  else if String.starts_with ~prefix:quarantine_codec_version payload then
    Option.map (fun q -> Quarantine_record q) (decode_quarantine payload)
  else Option.map (fun s -> Sample_record s) (Octo_util.Telemetry.decode_sample payload)

(* ------------------------------------------------------------------ *)
(* Deterministic dump ordering. *)

(* Registry labels are integers-as-strings; compare those numerically so
   "10" sorts after "9", everything else lexicographically. *)
let compare_labels a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some x, Some y -> compare x y
  | _ -> compare a b

let sort_dump entries =
  List.sort
    (fun (l1, k1, _) (l2, k2, _) ->
      match compare_labels l1 l2 with 0 -> compare k1 k2 | c -> c)
    entries
