(* Property-based tests (Qcheck_lite over the repo's splitmix64 Rng) for
   the durable run layer:

   - every wire codec — the OPR3 verdict record, the provenance blob, the
     OTL1 telemetry sample, the OQR1 quarantine record and the CRC frame —
     round-trips arbitrary values exactly and is total on garbage,
     byte-flips and truncations, through one suite parameterised by codec;
   - OPR2 records, written before the bump to OPR3, still decode;
   - the journal reader ([Journal.replay] / [Journal.parse]) never raises
     on corrupted files — random byte-flips and truncations of a valid
     journal always yield a valid prefix of the original records. *)

module Q = Qcheck_lite
module Journal = Octo_util.Journal
module Metrics = Octo_util.Metrics
module Prov = Octopocs.Provenance
module Sandbox = Octo_util.Sandbox
module Telemetry = Octo_util.Telemetry

(* -- generators -------------------------------------------------------- *)

let gen_label : string Q.gen = Q.map string_of_int (Q.int_range 0 99)
let gen_key : string Q.gen = Q.byte_string (Q.int_range 0 40)

(* Arbitrary binary strings, NULs and high bytes included: poc' bytes are
   raw model output and the codec must be binary-safe. *)
let gen_poc : string Q.gen = Q.byte_string (Q.int_range 0 64)

let gen_reason : Octopocs.not_triggerable_reason Q.gen =
  Q.oneof
    [|
      Q.return Octopocs.Ep_not_called;
      Q.return Octopocs.Program_dead;
      Q.return Octopocs.Unsat_model;
      Q.map (fun k -> Octopocs.Constraint_conflict k) (Q.int_range 0 1000);
    |]

let gen_verdict : Octopocs.verdict Q.gen =
  Q.frequency
    [
      ( 3,
        Q.map
          (fun (poc', b) ->
            Octopocs.Triggered
              { poc'; ptype = (if b then Octopocs.Type_I else Octopocs.Type_II) })
          (Q.pair gen_poc Q.bool) );
      (3, Q.map (fun r -> Octopocs.Not_triggerable r) gen_reason);
      (2, Q.map (fun m -> Octopocs.Failure m) (Q.byte_string (Q.int_range 0 80)));
    ]

let gen_degradations : string list Q.gen =
  Q.list_of (Q.int_range 0 3)
    (Q.oneof
       [|
         Q.return "dynamic-cfg"; Q.return "symex-escalate"; Q.return "sym-file-degrade";
       |])

let gen_metrics : Metrics.snapshot option Q.gen =
 fun rng ->
  if Q.bool rng then None
  else begin
    let s = Metrics.zero () in
    List.iter
      (fun c -> s.Metrics.counters.(Metrics.counter_index c) <- Q.int_range 0 100000 rng)
      Metrics.all_counters;
    List.iter
      (fun p ->
        let i = Metrics.phase_index p in
        s.Metrics.phase_count.(i) <- Q.int_range 0 50 rng;
        s.Metrics.phase_ns.(i) <- Q.int_range 0 1_000_000 rng)
      Metrics.all_phases;
    Some s
  end

(* Provenance generators: every event constructor, binary-safe strings
   (condition renderings and failure messages are raw text in real logs,
   but the codec must survive arbitrary bytes). *)

let gen_fname : string Q.gen = Q.byte_string (Q.int_range 1 10)

let gen_origin : Prov.origin Q.gen =
  Q.oneof
    [|
      (fun rng ->
        let bunch = Q.int_range 1 9 rng in
        let off = Q.int_range 0 500 rng in
        Prov.Bunch_byte { bunch; off; value = Q.int_range 0 255 rng });
      (fun rng ->
        let bunch = Q.int_range 1 9 rng in
        let arg = Q.int_range 0 7 rng in
        Prov.Replayed_arg { bunch; arg; value = Q.int_range (-1000) 1000 rng });
      Q.return Prov.Path_constraint;
    |]

let gen_core_entry : Prov.core_entry Q.gen =
 fun rng ->
  let origin = gen_origin rng in
  { Prov.origin; cond = Q.byte_string (Q.int_range 0 20) rng }

let gen_event : Prov.event Q.gen =
  Q.oneof
    [|
      (fun rng ->
        let seq = Q.int_range 1 9 rng in
        let anchor = Q.int_range 0 100 rng in
        let ranges =
          Q.list_of (Q.int_range 0 4) (Q.pair (Q.int_range 0 100) (Q.int_range 0 100)) rng
        in
        let tainted_args = Q.list_of (Q.int_range 0 4) (Q.int_range 0 7) rng in
        Prov.Taint_bunch
          { seq; anchor; ranges; tainted_args; sites = Q.list_of (Q.int_range 0 3) gen_fname rng });
      (fun rng ->
        let func = gen_fname rng in
        let pc = Q.int_range 0 999 rng in
        Prov.Branch_forced { func; pc; preferred_taken = Q.bool rng });
      (fun rng ->
        let func = gen_fname rng in
        let pc = Q.int_range 0 999 rng in
        let granted = Q.int_range 1 200 rng in
        Prov.Loop_retry { func; pc; granted; theta = Q.int_range 1 200 rng });
      (fun rng ->
        let func = gen_fname rng in
        Prov.Path_pruned { func; pc = Q.int_range 0 999 rng });
      (fun rng ->
        let seq = Q.int_range 1 9 rng in
        let file_pos = Q.int_range 0 100 rng in
        let nbytes = Q.int_range 0 64 rng in
        Prov.Bunch_pinned { seq; file_pos; nbytes; args_replayed = Q.int_range 0 8 rng });
      (fun rng ->
        let seq = Q.int_range 1 9 rng in
        Prov.Conflict { seq; core = Q.list_of (Q.int_range 0 5) gen_core_entry rng });
      (fun rng ->
        let func = gen_fname rng in
        let pc = Q.int_range 0 999 rng in
        let fault = Q.byte_string (Q.int_range 0 24) rng in
        Prov.Crash_site { func; pc; fault; in_ell = Q.bool rng });
      (fun rng ->
        let rung = gen_fname rng in
        Prov.Rung { rung; failure = Q.byte_string (Q.int_range 0 30) rng });
    |]

let gen_prov : Prov.t Q.gen =
 fun rng ->
  let events = Q.list_of (Q.int_range 0 12) gen_event rng in
  { Prov.events; dropped = Q.int_range 0 5 rng }

let gen_provenance : Prov.t option Q.gen =
 fun rng -> if Q.bool rng then None else Some (gen_prov rng)

let gen_report : Octopocs.report Q.gen =
 fun rng ->
  let verdict = gen_verdict rng in
  let ep = Q.byte_string (Q.int_range 0 12) rng in
  let ell = Q.list_of (Q.int_range 0 4) (Q.byte_string (Q.int_range 1 10)) rng in
  let degradations = gen_degradations rng in
  let elapsed_s = float_of_int (Q.int_range 0 10_000 rng) /. 1000. in
  let metrics = gen_metrics rng in
  let provenance = gen_provenance rng in
  {
    (Octopocs.failure_report "") with
    verdict;
    ep;
    ell;
    degradations;
    elapsed_s;
    metrics;
    provenance;
  }

let gen_labelled_report : (string * string * Octopocs.report) Q.gen =
 fun rng -> (gen_label rng, gen_key rng, gen_report rng)

(* Samples with and without an attached metrics snapshot; histogram
   buckets populated too (gen_metrics leaves them zero, and the OTL1
   frame persists all of them). *)
let gen_sample : Telemetry.sample Q.gen =
 fun rng ->
  let i lo hi = Q.int_range lo hi rng in
  let metrics =
    match gen_metrics rng with
    | None -> None
    | Some s ->
        for k = 0 to Array.length s.Metrics.phase_hist - 1 do
          s.Metrics.phase_hist.(k) <- Q.int_range 0 50 rng
        done;
        Some s
  in
  {
    Telemetry.ts_ns = i 0 1_000_000_000;
    pulled = i 0 100000;
    settled = i 0 100000;
    quarantined = i 0 1000;
    in_flight = i 0 64;
    window = i 0 64;
    retries = i 0 1000;
    stalls = i 0 1000;
    backoffs = i 0 1000;
    deferrals = i 0 1000;
    rss_kb = i 0 10_000_000;
    child_rss_kb = i 0 10_000_000;
    minor_words = i 0 1_000_000_000;
    major_words = i 0 1_000_000_000;
    metrics;
  }

let gen_quarantine : Octopocs.quarantine Q.gen =
 fun rng ->
  let text n = Q.byte_string (Q.int_range 0 n) rng in
  let qlabel = gen_label rng in
  let qkey = gen_key rng in
  let qreason = text 20 in
  let qmessage = text 60 in
  let qbacktrace = text 120 in
  { Octopocs.qlabel; qkey; qreason; qmessage; qbacktrace; qattempts = Q.int_range 1 9 rng }

(* -- OPR2 legacy compatibility ----------------------------------------- *)

(* Byte-faithful replica of the pre-provenance (OPR2) encoder: same fields
   as OPR3 but metrics presence inferred from end-of-record and no
   provenance tail.  Guards the decoder's promise that journals written
   before the bump replay and resume unchanged. *)

let put_str b s =
  let l = Bytes.create 4 in
  Bytes.set_int32_le l 0 (Int32.of_int (String.length s));
  Buffer.add_bytes b l;
  Buffer.add_string b s

let put_int b i =
  let l = Bytes.create 8 in
  Bytes.set_int64_le l 0 (Int64.of_int i);
  Buffer.add_bytes b l

let put_str_list b xs =
  put_int b (List.length xs);
  List.iter (put_str b) xs

let put_int_array b a =
  put_int b (Array.length a);
  Array.iter (put_int b) a

let encode_result_opr2 ~label ~key (r : Octopocs.report) =
  let b = Buffer.create 256 in
  Buffer.add_string b "OPR2";
  put_str b label;
  put_str b key;
  put_str b r.ep;
  put_str_list b r.ell;
  (match r.verdict with
  | Octopocs.Triggered { poc'; ptype } ->
      Buffer.add_char b 'T';
      Buffer.add_char b (match ptype with Octopocs.Type_I -> '1' | Octopocs.Type_II -> '2');
      put_str b poc'
  | Octopocs.Not_triggerable reason ->
      Buffer.add_char b 'N';
      (match reason with
      | Octopocs.Ep_not_called -> Buffer.add_char b 'e'
      | Octopocs.Program_dead -> Buffer.add_char b 'd'
      | Octopocs.Unsat_model -> Buffer.add_char b 'u'
      | Octopocs.Constraint_conflict k ->
          Buffer.add_char b 'c';
          put_str b (string_of_int k))
  | Octopocs.Failure msg ->
      Buffer.add_char b 'F';
      put_str b msg);
  put_str_list b r.degradations;
  put_str b (Int64.to_string (Int64.bits_of_float r.elapsed_s));
  (match r.metrics with
  | None -> ()
  | Some (m : Metrics.snapshot) ->
      put_int_array b m.Metrics.counters;
      put_int_array b m.Metrics.phase_count;
      put_int_array b m.Metrics.phase_ns;
      put_int_array b m.Metrics.phase_hist);
  Buffer.contents b

let legacy_decodes_ok (label, key, (r : Octopocs.report)) =
  Octopocs.decode_result (encode_result_opr2 ~label ~key r)
  = Some (label, key, { r with provenance = None })

(* -- journal corruption ------------------------------------------------ *)

(* Build a valid journal of the given payloads on disk, return its path.
   Callers corrupt the bytes afterwards. *)
let write_journal payloads =
  let path = Filename.temp_file "octoprop" ".jrnl" in
  Sys.remove path;
  let w = Journal.create ~fsync:false ~path () in
  List.iter (Journal.append w) payloads;
  Journal.close w;
  path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let is_prefix_of shorter longer =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go xs ys
  in
  go shorter longer

(* The central robustness property of the durable layer: ANY byte flip in
   a valid journal leaves [replay] returning a valid prefix (CRC framing
   detects the damaged record and everything after it is dropped; damage
   in record k never corrupts records before k), and never raises. *)
let corrupt_prop ((payloads, flips) : string list * (int * int) list) =
  let path = write_journal payloads in
  let ok =
    try
      let orig = (Journal.replay path).records in
      let data = Bytes.of_string (read_file path) in
      List.iter
        (fun (pos_frac, newbyte) ->
          if Bytes.length data > 0 then
            Bytes.set data (pos_frac mod Bytes.length data) (Char.chr newbyte))
        flips;
      write_file path (Bytes.to_string data);
      let r = Journal.replay path in
      is_prefix_of r.records orig
    with e ->
      Sys.remove path;
      raise e
  in
  Sys.remove path;
  ok

(* Same property for truncation at every possible length: the reader
   must degrade to a valid prefix, bit-for-bit, with the torn flag set
   whenever anything was actually lost mid-record. *)
let truncate_prop ((payloads, cut_frac) : string list * int) =
  let path = write_journal payloads in
  let ok =
    try
      let orig = (Journal.replay path).records in
      let data = read_file path in
      let cut = if String.length data = 0 then 0 else cut_frac mod (String.length data + 1) in
      write_file path (String.sub data 0 cut);
      let r = Journal.replay path in
      is_prefix_of r.records orig
    with e ->
      Sys.remove path;
      raise e
  in
  Sys.remove path;
  ok

(* Journals of random verdict records, and the byte-flips applied to them. *)

let gen_payloads : string list Q.gen =
  Q.list_of (Q.int_range 0 6)
    (Q.map
       (fun (label, key, r) -> Octopocs.encode_result ~label ~key r)
       gen_labelled_report)

let gen_flips : (int * int) list Q.gen =
  Q.list_of (Q.int_range 1 4) (Q.pair (Q.int_range 0 1_000_000) (Q.int_range 0 255))

(* -- Pool.backoff_delay ------------------------------------------------- *)

module Pool = Octo_util.Pool

(* Mirror of the documented envelope midpoint: exponential in the
   attempt, clamped to [1, 16] doublings, capped at [cap_s]. *)
let backoff_mid ~base_s ~cap_s attempt =
  let a = max 1 (min attempt 16) in
  Float.min cap_s (base_s *. Float.of_int (1 lsl (a - 1)))

let gen_bkey : int Q.gen = Q.int_range 0 1_000_000
let gen_attempt : int Q.gen = Q.int_range (-3) 40

let backoff_deterministic (key, attempt) =
  let d1 = Pool.backoff_delay ~key ~attempt () in
  let d2 = Pool.backoff_delay ~key ~attempt () in
  Float.equal d1 d2

let backoff_envelope (key, attempt) =
  let d = Pool.backoff_delay ~key ~attempt () in
  let mid = backoff_mid ~base_s:0.002 ~cap_s:0.100 attempt in
  d >= 0.5 *. mid && d < 1.5 *. mid

let backoff_envelope_monotone_capped key =
  (* The jitter-free midpoint never shrinks as attempts mount and never
     exceeds the cap; past 16 doublings it is pinned at the cap. *)
  let ok = ref true in
  for attempt = 1 to 39 do
    let m = backoff_mid ~base_s:0.002 ~cap_s:0.100 attempt in
    let m' = backoff_mid ~base_s:0.002 ~cap_s:0.100 (attempt + 1) in
    if m' < m || m' > 0.100 then ok := false;
    ignore (Pool.backoff_delay ~key ~attempt ())
  done;
  !ok && Float.equal (backoff_mid ~base_s:0.002 ~cap_s:0.100 40) 0.100

let backoff_keys_decorrelated (k1, k2) =
  (* Distinct labels must not share a jitter stream: over attempts 1..8
     at least one delay differs (the deterministic per-(key, attempt)
     jitter makes collisions across all eight vanishingly unlikely). *)
  k1 = k2
  || List.exists
       (fun attempt ->
         not
           (Float.equal
              (Pool.backoff_delay ~key:k1 ~attempt ())
              (Pool.backoff_delay ~key:k2 ~attempt ())))
       [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* -- one property suite per codec ----------------------------------------- *)

type 'a codec = {
  name : string;
  noun : string;  (** what the round-trip case generates *)
  gen : 'a Q.gen;
  encode : 'a -> string;
  decode : string -> 'a option;
  tail_cut : 'a -> (int * 'a) option;
      (** the one strict prefix of [encode v] that is itself a valid
          record, if any, and the value it decodes to *)
  seeds : int * int * int * int;  (** round-trip, totality, flip, truncation *)
}

(* OPR3's provenance blob is an optional tail: cutting a record exactly
   where that tail starts leaves a valid record without provenance.  The
   codec cannot tell the two apart without a presence flag (a new record
   version); a cut there is caught by the journal frame's CRC, as a
   byte-flip inside poc' or a label is. *)
let opr3 =
  {
    name = "codec";
    noun = "reports";
    gen = gen_labelled_report;
    encode = (fun (label, key, r) -> Octopocs.encode_result ~label ~key r);
    decode = Octopocs.decode_result;
    tail_cut =
      (fun (label, key, (r : Octopocs.report)) ->
        Option.map
          (fun _ ->
            let r' = { r with provenance = None } in
            (String.length (Octopocs.encode_result ~label ~key r'), (label, key, r')))
          r.provenance);
    seeds = (0xC0DEC, 0xBAD, 0xF11B, 0x7C);
  }

let no_tail _ = None

let provenance =
  {
    name = "provenance";
    noun = "logs";
    gen = gen_prov;
    encode = Prov.encode;
    decode = Prov.decode;
    tail_cut = no_tail;
    seeds = (0x940C, 0x94BAD, 0x94F1, 0x947C);
  }

let telemetry =
  {
    name = "telemetry";
    noun = "samples";
    gen = gen_sample;
    encode = Telemetry.encode_sample;
    decode = Telemetry.decode_sample;
    tail_cut = no_tail;
    seeds = (0x071A, 0x071B, 0x071C, 0x071D);
  }

let quarantine =
  {
    name = "quarantine";
    noun = "records";
    gen = gen_quarantine;
    encode = Octopocs.encode_quarantine;
    decode = Octopocs.decode_quarantine;
    tail_cut = no_tail;
    seeds = (0x0A1A, 0x0A1B, 0x0A1C, 0x0A1D);
  }

let frame =
  {
    name = "frame";
    noun = "payloads";
    gen = Q.byte_string (Q.int_range 0 200);
    encode = Sandbox.frame;
    decode = (fun s -> Result.to_option (Sandbox.parse_frame s));
    tail_cut = no_tail;
    seeds = (0xF4A0, 0xF4A1, 0xF4A2, 0xF4A3);
  }

let codec_suite c =
  let rt_seed, total_seed, flip_seed, cut_seed = c.seeds in
  let case what ~seed gen prop = Q.test_case (c.name ^ ": " ^ what) ~seed ~count:300 gen prop in
  [
    case ("random " ^ c.noun ^ " round-trip exactly") ~seed:rt_seed c.gen (fun v ->
        c.decode (c.encode v) = Some v);
    (* Totality, not rejection: garbage that happens to parse is fine. *)
    case "decode is total on random bytes" ~seed:total_seed
      (Q.byte_string (Q.int_range 0 200))
      (fun s ->
        ignore (c.decode s);
        true);
    (* A flip MAY still decode (inside a string field the codec cannot
       see it; record integrity is the frame CRC's job) but must never
       raise. *)
    case "single byte-flips never crash the decoder" ~seed:flip_seed
      (Q.pair c.gen (Q.pair (Q.int_range 0 1_000_000) (Q.int_range 0 255)))
      (fun (v, (pos_frac, newbyte)) ->
        let b = Bytes.of_string (c.encode v) in
        if Bytes.length b > 0 then Bytes.set b (pos_frac mod Bytes.length b) (Char.chr newbyte);
        ignore (c.decode (Bytes.to_string b));
        true);
    (* Every strict prefix, not a sampled one: each decodes to [None],
       except the codec's [tail_cut], which decodes to exactly its value. *)
    case "truncations decode to None, never raise" ~seed:cut_seed c.gen (fun v ->
        let enc = c.encode v in
        let tail = c.tail_cut v in
        List.for_all
          (fun cut ->
            let got = c.decode (String.sub enc 0 cut) in
            match tail with
            | Some (at, v') when at = cut -> got = Some v'
            | _ -> got = None)
          (List.init (String.length enc) Fun.id));
  ]

let suite =
  codec_suite opr3 @ codec_suite provenance @ codec_suite telemetry @ codec_suite quarantine
  @ codec_suite frame
  @ [
      Q.test_case "codec: hand-built OPR2 records decode with provenance=None" ~seed:0x0972
        ~count:300 gen_labelled_report legacy_decodes_ok;
      Q.test_case "journal: random byte-flips -> replay returns a valid prefix" ~seed:0x10F1
        ~count:60
        (Q.pair gen_payloads gen_flips)
        corrupt_prop;
      Q.test_case "journal: random truncations -> replay returns a valid prefix" ~seed:0x7210
        ~count:60
        (Q.pair gen_payloads (Q.int_range 0 1_000_000))
        truncate_prop;
      Q.test_case "backoff: same key and attempt replay the exact delay" ~seed:0xBAC0
        ~count:300 (Q.pair gen_bkey gen_attempt) backoff_deterministic;
      Q.test_case "backoff: jitter stays inside the [0.5d, 1.5d) envelope" ~seed:0xBAC1
        ~count:300 (Q.pair gen_bkey gen_attempt) backoff_envelope;
      Q.test_case "backoff: envelope midpoint is monotone and capped" ~seed:0xBAC2
        ~count:100 gen_bkey backoff_envelope_monotone_capped;
      Q.test_case "backoff: distinct keys draw decorrelated jitter streams" ~seed:0xBAC3
        ~count:300 (Q.pair gen_bkey gen_bkey) backoff_keys_decorrelated;
    ]
