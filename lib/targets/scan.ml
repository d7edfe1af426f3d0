(** Corpus scanning: clone-detection front-end over a {!Source}, scored
    against annotated ground truth.

    A scan separates a corpus into {e probes} (each pair's S with its
    annotated vulnerable function — what a VUDDY user starts from) and
    {e targets} (every pair's T, plus optional seeded decoys), indexes
    the targets' exact function fingerprints with {!Octo_clone.Detect},
    retrieves and confirms (S, T, ℓ, ep) candidates, and reports a
    precision/recall table against the corpus's own annotations:

    - {b ground truth}: (probe i, target j) is a positive iff T_j links
      a function whose exact {!Clone} fingerprint equals S_i's annotated
      vulnerable function — the propagated-verbatim relation the
      detector is supposed to recover.  Within a generated corpus every
      same-family pair is therefore a positive (the decoder is the very
      same linked value), which is what makes cross-pair retrieval
      measurable rather than vacuous.
    - {b precision} is measured against the decoys and cross-family
      near-misses: a patched or mutated decoy differs from the decoder
      it copies, so it does not hold that decoder's exact fingerprint and
      is never retrieved.  Retrieval is the ground truth's own predicate,
      so precision is 1.0 by construction, and a positive is missed only
      when its hit fails confirmation (S does not crash on its PoC, or
      no crash frame lies in ℓ).

    Detection is pure and deterministic; verification of the confirmed
    candidates is composed downstream (the CLI pipes them through
    {!Octopocs.run_stream}). *)

open Octo_vm.Isa
module Detect = Octo_clone.Detect
module Clone = Octo_clone.Clone

type probe = {
  pr_label : string;
  pr_s : program;
  pr_poc : string;
  pr_vuln : string;  (** annotated vulnerable function of S *)
  pr_expected : string option;  (** annotated verdict class of the pair *)
}

type target = { tg_label : string; tg_prog : program }

(** [of_source src] drains [src] into (probes, targets).  Every pair
    contributes its T as a target; a pair is additionally a probe when it
    carries a vulnerable-function annotation naming a function S actually
    defines.  Returns pairs in pull order. *)
let of_source (src : Source.t) : probe list * target list =
  let probes = ref [] and targets = ref [] in
  let rec go () =
    match Source.next src with
    | None -> ()
    | Some p ->
        targets := { tg_label = p.Source.plabel; tg_prog = p.Source.pt } :: !targets;
        (match p.Source.pvuln with
        | Some v when Hashtbl.mem p.Source.ps.funcs v ->
            probes :=
              {
                pr_label = p.Source.plabel;
                pr_s = p.Source.ps;
                pr_poc = p.Source.ppoc;
                pr_vuln = v;
                pr_expected = p.Source.pexpected;
              }
              :: !probes
        | _ -> ());
        go ()
  in
  go ();
  (List.rev !probes, List.rev !targets)

(** [decoy_targets ~seed ~count] is the seeded decoy stream as scan
    targets (see {!Corpus.decoy}). *)
let decoy_targets ~seed ~count : target list =
  List.init count (fun i ->
      let label, prog = Corpus.decoy ~seed ~index:i in
      { tg_label = label; tg_prog = prog })

(* Numeric-aware label ordering, matching the journal dump's: registry
   label "10" sorts after "9", generated labels sort lexically. *)
let label_compare a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some x, Some y -> compare x y
  | _ -> compare a b

type result = {
  candidates : Detect.candidate list;  (** confirmed, sorted by (s, t) label *)
  n_probes : int;
  n_targets : int;
  n_decoys : int;
  n_retrieved : int;  (** hits: targets holding a probe's fingerprint *)
  n_rejected : int;  (** retrieved hits that failed confirmation *)
  n_no_crash : int;  (** probes whose S did not crash on its own PoC *)
  index_funcs : int;
  index_postings : int;
  gt : (string * string) list;  (** ground-truth positives, sorted *)
  n_tp : int;  (** confirmed candidates that are ground-truth positives *)
  by_class : (string * int * int) list;
      (** per annotated class: (class, diagonal positives confirmed,
          diagonal positives total) — the "recall on generator clone
          variants" row of the acceptance criteria *)
}

(** [run ~probes ~targets ~n_decoys ()] executes the detection pass:
    index all targets, query with each probe's vulnerable function,
    confirm hits through the validity filter. *)
let run ~(probes : probe list) ~(targets : target list) ~n_decoys () : result =
  let ix = Detect.index_create Detect.default_params in
  (* Every program is profiled once for the whole pass: the references
     are held here, so a pass larger than the profile table's cap still
     fingerprints each program exactly once, and the index is filled
     from the same profiles. *)
  let tprog : (string, program * Clone.profile) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun tg ->
      let tp = Clone.profile tg.tg_prog in
      Detect.index_add_profile ix ~label:tg.tg_label tp;
      Hashtbl.replace tprog tg.tg_label (tg.tg_prog, tp))
    targets;
  let _, index_funcs, index_postings = Detect.index_stats ix in
  let probes_p = List.map (fun pr -> (pr, Clone.profile pr.pr_s)) probes in
  (* Ground truth: (i, j) is a positive iff T_j carries the exact
     fingerprint of S_i's vulnerable function. *)
  let gt : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (pr, sp) ->
      let fp = Option.get (Clone.profile_fp sp pr.pr_vuln) in
      List.iter
        (fun tg ->
          if Clone.profile_has_fp (snd (Hashtbl.find tprog tg.tg_label)) fp then
            Hashtbl.replace gt (pr.pr_label, tg.tg_label) ())
        targets)
    probes_p;
  let n_retrieved = ref 0 and n_rejected = ref 0 and n_no_crash = ref 0 in
  let candidates =
    List.concat_map
      (fun (pr, sp) ->
        let crash = Detect.s_crash pr.pr_s ~poc:pr.pr_poc in
        if crash = None then incr n_no_crash;
        let hits = Detect.query ix (func_exn pr.pr_s pr.pr_vuln) in
        n_retrieved := !n_retrieved + List.length hits;
        List.filter_map
          (fun (h : Detect.hit) ->
            let t, tp = Hashtbl.find tprog h.h_label in
            match
              Detect.confirm_profiled ~sp ~tp ~s_label:pr.pr_label ~t ~t_label:h.h_label
                ~vuln_func:pr.pr_vuln ~s_crash:crash h
            with
            | Some c -> Some c
            | None ->
                incr n_rejected;
                None)
          hits)
      probes_p
  in
  let candidates =
    List.sort
      (fun (a : Detect.candidate) b ->
        match label_compare a.c_s_label b.c_s_label with
        | 0 -> label_compare a.c_t_label b.c_t_label
        | c -> c)
      candidates
  in
  let n_tp =
    List.length
      (List.filter (fun (c : Detect.candidate) -> Hashtbl.mem gt (c.c_s_label, c.c_t_label))
         candidates)
  in
  (* Diagonal recall per annotated class: of the probes whose own pair is
     a ground-truth positive, how many were rediscovered? *)
  let by_class =
    let found : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun (c : Detect.candidate) -> Hashtbl.replace found (c.c_s_label, c.c_t_label) ())
      candidates;
    let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun pr ->
        match pr.pr_expected with
        | Some cls when Hashtbl.mem gt (pr.pr_label, pr.pr_label) ->
            let conf, tot = Option.value (Hashtbl.find_opt tbl cls) ~default:(0, 0) in
            let hitp = Hashtbl.mem found (pr.pr_label, pr.pr_label) in
            Hashtbl.replace tbl cls ((conf + if hitp then 1 else 0), tot + 1)
        | _ -> ())
      probes;
    Hashtbl.fold (fun cls (c, t) acc -> (cls, c, t) :: acc) tbl []
    |> List.sort compare
  in
  {
    candidates;
    n_probes = List.length probes;
    n_targets = List.length targets;
    n_decoys;
    n_retrieved = !n_retrieved;
    n_rejected = !n_rejected;
    n_no_crash = !n_no_crash;
    index_funcs;
    index_postings;
    gt =
      Hashtbl.fold (fun k () acc -> k :: acc) gt []
      |> List.sort (fun (a1, a2) (b1, b2) ->
             match label_compare a1 b1 with 0 -> label_compare a2 b2 | c -> c);
    n_tp;
    by_class;
  }

(** [recall r] is |confirmed ∩ ground truth| / |ground truth| (1.0 on an
    empty ground truth); [precision r] is the same numerator over the
    confirmed count. *)
let recall r =
  if r.gt = [] then 1.0 else float_of_int r.n_tp /. float_of_int (List.length r.gt)

let precision r =
  if r.candidates = [] then 1.0
  else float_of_int r.n_tp /. float_of_int (List.length r.candidates)

(** [render ~corpus_id r] is the deterministic scan report: header,
    index size, one line per confirmed candidate, counts and the
    precision/recall table.  Byte-identical across runs of the same
    corpus — the golden test and the CI scan-smoke job
    diff it directly. *)
let render ~corpus_id (r : result) : string =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "scan: corpus=%s probes=%d targets=%d decoys=%d" corpus_id r.n_probes r.n_targets
    r.n_decoys;
  line "index: %d function(s), %d posting(s)" r.index_funcs r.index_postings;
  let gt : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace gt k ()) r.gt;
  List.iter
    (fun (c : Detect.candidate) ->
      line "candidate s=%s t=%s vuln=%s hit=%s ell=%d ep=%s reach=%s gt=%s" c.c_s_label
        c.c_t_label c.c_vuln_func c.c_hit_func (List.length c.c_ell) c.c_ep
        (match c.c_reachable with Some true -> "yes" | Some false -> "no" | None -> "cfg-fail")
        (if Hashtbl.mem gt (c.c_s_label, c.c_t_label) then "tp" else "fp"))
    r.candidates;
  line "counts: retrieved=%d confirmed=%d rejected=%d no-crash=%d" r.n_retrieved
    (List.length r.candidates) r.n_rejected r.n_no_crash;
  line "ground-truth: positives=%d" (List.length r.gt);
  line "precision: %.3f (%d/%d)" (precision r) r.n_tp (List.length r.candidates);
  line "recall: %.3f (%d/%d)" (recall r) r.n_tp (List.length r.gt);
  if r.by_class <> [] then begin
    line "diagonal recall by class:";
    List.iter
      (fun (cls, conf, tot) ->
        line "  %-9s %.3f (%d/%d)" cls
          (if tot = 0 then 1.0 else float_of_int conf /. float_of_int tot)
          conf tot)
      r.by_class
  end;
  Buffer.contents b
