(* Clone-detection front-end tests: retrieval by exact fingerprint is
   the ground-truth relation (decoys never retrieved), a target linking
   the vulnerable function under two names yields one candidate, the
   strict/lenient directory-source contract, the golden scan report over
   the registry, and the differential check that a scan over the
   generated corpus rediscovers its own clone variants and verifies them
   to the annotated verdict classes.

   Golden regeneration (after an INTENTIONAL change, from the repo root):

     OCTOPOCS_REGEN_GOLDEN=$PWD/test/golden_table2.txt dune runtest --force

   (the env var names the Table II golden; every golden file — including
   [golden_scan_registry.txt] — is rewritten into its directory). *)

module Detect = Octo_clone.Detect
module Scan = Octo_targets.Scan
module Source = Octo_targets.Source
module Corpus = Octo_targets.Corpus

(* -- unit: the decoy split ----------------------------------------------- *)

let registry_scan () =
  let src = Source.registry () in
  let probes, targets = Scan.of_source src in
  let n_decoys = 3 in
  let targets = targets @ Scan.decoy_targets ~seed:7 ~count:n_decoys in
  Scan.run ~probes ~targets ~n_decoys ()

(* The gen:60:42 scan with three seed-7 decoys retrieves exactly its
   ground-truth (probe, target) set, and no decoy: the patched and mutated
   decoys do not hold their decoder's exact fingerprint. *)
let test_retrieval_is_ground_truth () =
  let key ((pr : Scan.probe), _, (h : Detect.hit)) = (pr.pr_label, h.h_label) in
  let hits = List.map key (Test_clone.scan_hits ()) in
  let probes, targets = Scan.of_source (Source.generated ~seed:42 ~count:60 ()) in
  let targets = targets @ Scan.decoy_targets ~seed:7 ~count:3 in
  let r = Scan.run ~probes ~targets ~n_decoys:3 () in
  Alcotest.(check int) "ground-truth positives" 628 (List.length r.gt);
  Alcotest.(check (list (pair string string)))
    "retrieved = ground truth" r.gt
    (List.sort (fun (a1, a2) (b1, b2) ->
         match Scan.label_compare a1 b1 with 0 -> Scan.label_compare a2 b2 | c -> c)
       hits);
  List.iter
    (fun (_, t) ->
      Alcotest.(check bool) (t ^ " is not a decoy") false (t.[0] = 'd'))
    hits

(* A target that links S's vulnerable function under two names is one
   hit and one candidate: registry pair 1's T plus a copy of mjpg_scan
   named mjpg_scan_copy, scanned alone with pair 1's probe. *)
let test_two_names_one_candidate () =
  let probes, targets = Scan.of_source (Source.registry ()) in
  let pr = List.hd probes and tg = List.hd targets in
  let t = tg.tg_prog in
  let funcs = Hashtbl.copy t.funcs in
  let f = Hashtbl.find funcs "mjpg_scan" in
  Hashtbl.replace funcs "mjpg_scan_copy" { f with fname = "mjpg_scan_copy" };
  let tg = { tg with tg_prog = { t with funcs } } in
  let r = Scan.run ~probes:[ pr ] ~targets:[ tg ] ~n_decoys:0 () in
  Alcotest.(check int) "candidates" 1 (List.length r.candidates);
  Alcotest.(check int) "retrieved" 1 r.n_retrieved;
  let report = Scan.render ~corpus_id:"registry" r in
  List.iter
    (fun line ->
      Alcotest.(check bool) line true
        (List.mem line (String.split_on_char '\n' report)))
    [ "precision: 1.000 (1/1)"; "recall: 1.000 (1/1)" ]

(* No candidate may name a decoy target. *)
let check_no_decoy (r : Scan.result) =
  List.iter
    (fun (c : Detect.candidate) ->
      Alcotest.(check bool)
        (Printf.sprintf "candidate %s->%s is not a decoy" c.c_s_label c.c_t_label)
        false
        (String.length c.c_t_label > 0 && c.c_t_label.[0] = 'd'))
    r.candidates

let test_registry_scan () =
  let r = registry_scan () in
  Alcotest.(check int) "retrieved" 35 r.Scan.n_retrieved;
  Alcotest.(check int) "confirmed" 35 (List.length r.Scan.candidates);
  Alcotest.(check int) "rejected" 0 r.Scan.n_rejected;
  Alcotest.(check (float 1e-9)) "precision" 1.0 (Scan.precision r);
  Alcotest.(check (float 1e-9)) "recall" 1.0 (Scan.recall r);
  check_no_decoy r;
  (* Every diagonal candidate recovers a usable (ℓ, ep): ep ∈ ℓ. *)
  List.iter
    (fun (c : Detect.candidate) ->
      if c.c_s_label = c.c_t_label then begin
        Alcotest.(check bool)
          (Printf.sprintf "pair %s: ep in ell" c.c_s_label)
          true (List.mem c.c_ep c.c_ell)
      end)
    r.Scan.candidates

(* Many decoys over gen:100:42: a patched tif decoy differs from the
   decoder only in allocation immediates, so it does not hold the
   decoder's exact fingerprint and is never retrieved; every hit is a
   ground-truth positive. *)
let test_many_decoys () =
  let probes, targets = Scan.of_source (Source.generated ~seed:42 ~count:100 ()) in
  List.iter
    (fun (seed, n_decoys) ->
      let what = Printf.sprintf "%d decoys, seed %d" n_decoys seed in
      let targets = targets @ Scan.decoy_targets ~seed ~count:n_decoys in
      let r = Scan.run ~probes ~targets ~n_decoys () in
      Alcotest.(check int) (what ^ ": retrieved") 1726 r.n_retrieved;
      Alcotest.(check int) (what ^ ": positives") 1726 (List.length r.gt);
      Alcotest.(check (float 1e-9)) (what ^ ": precision") 1.0 (Scan.precision r);
      Alcotest.(check (float 1e-9)) (what ^ ": recall") 1.0 (Scan.recall r);
      check_no_decoy r)
    [ (7, 200); (42, 20) ]

(* -- golden: the registry scan report ----------------------------------- *)

let scan_golden_file = "golden_scan_registry.txt"

let render_registry_scan () = Scan.render ~corpus_id:"registry" (registry_scan ())

let test_scan_golden () =
  let rendered = render_registry_scan () in
  match Sys.getenv_opt "OCTOPOCS_REGEN_GOLDEN" with
  | Some out when out <> "" ->
      let path = Filename.concat (Filename.dirname out) scan_golden_file in
      let oc = open_out_bin path in
      output_string oc rendered;
      close_out oc;
      Printf.printf "regenerated %s (%d bytes)\n" path (String.length rendered)
  | _ ->
      if not (Sys.file_exists scan_golden_file) then
        Alcotest.failf
          "%s missing — regenerate with OCTOPOCS_REGEN_GOLDEN=$PWD/test/golden_table2.txt \
           dune runtest --force"
          scan_golden_file;
      let ic = open_in_bin scan_golden_file in
      let want = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "registry scan report" want rendered

let test_scan_deterministic () =
  Alcotest.(check string) "scan render is byte-stable across runs" (render_registry_scan ())
    (render_registry_scan ())

(* 220 programs overflow the 128-entry profile table, whatever earlier
   tests left in it.  The digest is of the report body a fresh
   [octopocs scan --corpus gen:100:42 --decoys 20 --no-verify] prints. *)
let test_scan_over_profile_cap () =
  let probes, targets = Scan.of_source (Source.generated ~seed:42 ~count:100 ()) in
  let targets = targets @ Scan.decoy_targets ~seed:7 ~count:20 in
  let render () =
    Scan.render ~corpus_id:"gen:100:42" (Scan.run ~probes ~targets ~n_decoys:20 ())
  in
  let first = render () in
  Alcotest.(check string) "as a fresh process" "0229cf5165a92cc1e77161e9e1e43edd"
    (Digest.to_hex (Digest.string first));
  Alcotest.(check string) "second pass" first (render ())

(* -- strict vs lenient directory sources -------------------------------- *)

let with_corrupt_dir f =
  let dir = Filename.temp_file "octoscan" "" in
  Sys.remove dir;
  Source.write_dir ~dir ~seed:42 ~count:2;
  let bad = Filename.concat dir "zz-corrupt.pair" in
  let oc = open_out bad in
  output_string oc "this is not a manifest\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let drain src =
  let rec go n = match Source.next src with None -> n | Some _ -> go (n + 1) in
  go 0

let test_directory_lenient () =
  with_corrupt_dir (fun dir ->
      Alcotest.(check int) "lenient: malformed manifest skipped, 2 pairs stream" 2
        (drain (Source.directory dir)))

let test_directory_strict () =
  with_corrupt_dir (fun dir ->
      let src = Source.directory ~strict:true dir in
      Alcotest.check_raises "strict: malformed manifest raises"
        (Source.Malformed_manifest (Filename.concat dir "zz-corrupt.pair"))
        (fun () -> ignore (drain src)))

(* -- differential: scan over gen:200:42 --------------------------------- *)

(* The scan must rediscover the generator's clone variants on the
   diagonal (recall >= 0.9 pinned by the issue; the detector currently
   achieves 1.0), and every rediscovered pair must verify to exactly the
   class the generator annotated — the same (S, T, poc) the scan's
   verification stage would run. *)
let test_differential_gen200 () =
  let src = Source.generated ~seed:42 ~count:200 () in
  let probes, targets = Scan.of_source src in
  let r = Scan.run ~probes ~targets ~n_decoys:0 () in
  Alcotest.(check (float 1e-9)) "overall precision" 1.0 (Scan.precision r);
  let diag_hit label =
    List.exists
      (fun (c : Detect.candidate) -> c.c_s_label = label && c.c_t_label = label)
      r.Scan.candidates
  in
  let pairs = List.init 200 (fun i -> Corpus.generate ~seed:42 ~index:i) in
  let clones = List.filter (fun g -> g.Corpus.gvariant = Corpus.Clone) pairs in
  let hit = List.length (List.filter (fun g -> diag_hit g.Corpus.glabel) clones) in
  let frac = float_of_int hit /. float_of_int (List.length clones) in
  if frac < 0.9 then
    Alcotest.failf "clone-variant diagonal recall %.3f < 0.9 (%d/%d)" frac hit
      (List.length clones);
  (* Verify one rediscovered pair per variant class and compare the
     verdict class with the generator's annotation. *)
  let sample =
    List.filter_map
      (fun variant ->
        List.find_opt
          (fun g -> g.Corpus.gvariant = variant && diag_hit g.Corpus.glabel)
          pairs)
      [ Corpus.Clone; Corpus.Guard; Corpus.Conflict; Corpus.Dead_ep ]
  in
  Alcotest.(check bool) "all four variants rediscovered" true (List.length sample = 4);
  List.iter
    (fun (g : Corpus.gen_pair) ->
      let rep = Octopocs.run ~s:g.Corpus.gs ~t:g.Corpus.gt ~poc:g.Corpus.gpoc () in
      Alcotest.(check string)
        (Printf.sprintf "%s verifies to its annotated class" g.Corpus.glabel)
        g.Corpus.gexpected
        (Octopocs.verdict_class rep.Octopocs.verdict))
    sample

let suite =
  [
    Alcotest.test_case "retrieval is the ground truth, no decoy" `Quick
      test_retrieval_is_ground_truth;
    Alcotest.test_case "scan: two names of one clone, one candidate" `Quick
      test_two_names_one_candidate;
    Alcotest.test_case "registry scan: precision/recall" `Quick test_registry_scan;
    Alcotest.test_case "scan: many decoys, precision and recall 1.0" `Quick test_many_decoys;
    Alcotest.test_case "registry scan: golden report" `Quick test_scan_golden;
    Alcotest.test_case "registry scan: deterministic" `Quick test_scan_deterministic;
    Alcotest.test_case "scan: pass over the profile cap" `Quick test_scan_over_profile_cap;
    Alcotest.test_case "directory source: lenient skips" `Quick test_directory_lenient;
    Alcotest.test_case "directory source: strict raises" `Quick test_directory_strict;
    Alcotest.test_case "differential: gen:200:42 rediscovery" `Slow test_differential_gen200;
  ]
