(** Corpus scanning: clone-detection front-end over a {!Source}.

    A scan separates a corpus into {e probes} (each pair's S with its
    annotated vulnerable function — what a VUDDY user starts from) and
    {e targets} (every pair's T, plus optional seeded decoys), profiles
    every program once, indexes the targets' exact function fingerprints
    with {!Octo_clone.Detect}, and queries each probe.  Every hit is a
    candidate (S, T, ℓ); the OCTOPOCS pipeline is the validator that
    crashes S, picks ep and settles the verdict.

    - {b ground truth}: for now, the hits themselves — (probe i, target
      j) is a positive iff T_j links a function whose exact {!Clone}
      fingerprint equals S_i's annotated vulnerable function, the
      propagated-verbatim relation the lookup computes.  Within a
      generated corpus every same-family pair is a positive (the decoder
      is the very same linked value).  ROADMAP item 5's planted manifest
      will replace it with an independent relation.
    - {b precision} is measured against the decoys and cross-family
      near-misses: a patched or mutated decoy differs from the decoder
      it copies, so it does not hold that decoder's exact fingerprint and
      is never retrieved.  Until the ground truth is independent,
      precision and recall read 1.0 by construction.

    Detection is pure and deterministic; {!jobs} turns the candidates
    into verification jobs, which the CLI pipes through
    {!Octopocs.run_stream}. *)

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

(* What a candidate's verification job needs: its probe, T, and ℓ in the
   order the pipeline's own clone stage derives it. *)
type found = { f_probe : probe; f_t : program; f_ell : string list }

type result = {
  candidates : Detect.candidate list;  (** one per hit, sorted by (s, t) label *)
  found : found list;  (** per candidate, in the same order *)
  n_probes : int;
  n_targets : int;
  n_decoys : int;
  n_retrieved : int;  (** hits: targets holding a probe's fingerprint *)
  index_funcs : int;
  index_postings : int;
  gt : (string * string) list;  (** ground-truth positives: the hits, sorted *)
  n_tp : int;  (** candidates that are ground-truth positives *)
  by_class : (string * int * int) list;
      (** per annotated class: (class, diagonal positives found,
          diagonal positives total) — the "recall on generator clone
          variants" row of the acceptance criteria *)
}

(** [run ~probes ~targets ~n_decoys ()] executes the detection pass:
    profile every program once, index the targets, query each probe's
    vulnerable function; every hit is a candidate. *)
let run ~(probes : probe list) ~(targets : target list) ~n_decoys () : result =
  let ix = Detect.index_create Detect.default_params in
  let tprog : (string, program * Clone.profile) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun tg ->
      let tp = Clone.profile tg.tg_prog in
      Detect.index_add_profile ix ~label:tg.tg_label tp;
      Hashtbl.replace tprog tg.tg_label (tg.tg_prog, tp))
    targets;
  let _, index_funcs, index_postings = Detect.index_stats ix in
  let hits =
    List.concat_map
      (fun pr ->
        let sp = Clone.profile pr.pr_s in
        List.map
          (fun (h : Detect.hit) ->
            let t, tp = Hashtbl.find tprog h.h_label in
            let ell = Clone.ell_names (Clone.join sp tp) in
            ( { Detect.c_s_label = pr.pr_label; c_t_label = h.h_label;
                c_ell = List.sort_uniq compare ell },
              { f_probe = pr; f_t = t; f_ell = ell } ))
          (Detect.query ix (func_exn pr.pr_s pr.pr_vuln)))
      probes
    |> List.stable_sort (fun ((a : Detect.candidate), _) (b, _) ->
           match label_compare a.c_s_label b.c_s_label with
           | 0 -> label_compare a.c_t_label b.c_t_label
           | c -> c)
  in
  let candidates = List.map fst hits in
  let gt = List.map (fun (c : Detect.candidate) -> (c.c_s_label, c.c_t_label)) candidates in
  (* Diagonal recall per annotated class: of the probes whose own pair is
     a ground-truth positive, how many became candidates (all of them,
     while the ground truth is the hits). *)
  let by_class =
    let diagonal : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    List.iter (fun (s, t) -> if s = t then Hashtbl.replace diagonal s ()) gt;
    let tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun pr ->
        match pr.pr_expected with
        | Some cls when Hashtbl.mem diagonal pr.pr_label ->
            Hashtbl.replace tbl cls (1 + Option.value (Hashtbl.find_opt tbl cls) ~default:0)
        | _ -> ())
      probes;
    Hashtbl.fold (fun cls n acc -> (cls, n, n) :: acc) tbl [] |> List.sort compare
  in
  {
    candidates;
    found = List.map snd hits;
    n_probes = List.length probes;
    n_targets = List.length targets;
    n_decoys;
    n_retrieved = List.length hits;
    index_funcs;
    index_postings;
    gt;
    n_tp = List.length candidates;
    by_class;
  }

(** A verification job of a scan candidate, for the caller to build an
    {!Octopocs.job} from.  A diagonal candidate (S and T of one corpus
    pair) runs under the pair's label with [jb_ell = None], so the
    pipeline derives ℓ and the content key is the one a [verify-all] run
    over the same corpus computes; it carries the pair's annotation.  A
    cross candidate runs as ["S~T"] with the candidate's sorted ℓ.
    [jb_derived_ell] is ℓ exactly as the pipeline would derive it
    ([Clone.ell_names (Clone.shared_functions s t)], order included),
    for the caller to hand to the job's products so the pipeline does
    not profile S and T again. *)
type job = {
  jb_label : string;
  jb_s : program;
  jb_t : program;
  jb_poc : string;
  jb_ell : string list option;
  jb_derived_ell : string list;
  jb_expected : string option;
}

(** [jobs r] is one job per candidate of [r], in candidate order. *)
let jobs (r : result) : job list =
  List.map2
    (fun (c : Detect.candidate) f ->
      let diagonal = c.c_s_label = c.c_t_label in
      {
        jb_label = (if diagonal then c.c_s_label else c.c_s_label ^ "~" ^ c.c_t_label);
        jb_s = f.f_probe.pr_s;
        jb_t = f.f_t;
        jb_poc = f.f_probe.pr_poc;
        jb_ell = (if diagonal then None else Some c.c_ell);
        jb_derived_ell = f.f_ell;
        jb_expected = (if diagonal then f.f_probe.pr_expected else None);
      })
    r.candidates r.found

(** [recall r] is |candidates ∩ ground truth| / |ground truth| (1.0 on an
    empty ground truth); [precision r] is the same numerator over the
    candidate count. *)
let recall r =
  if r.gt = [] then 1.0 else float_of_int r.n_tp /. float_of_int (List.length r.gt)

let precision r =
  if r.candidates = [] then 1.0
  else float_of_int r.n_tp /. float_of_int (List.length r.candidates)

(** [render ~corpus_id r] is the deterministic scan report: header,
    index size, one line per candidate, counts and the
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
      line "candidate s=%s t=%s ell=%d gt=%s" c.c_s_label c.c_t_label (List.length c.c_ell)
        (if Hashtbl.mem gt (c.c_s_label, c.c_t_label) then "tp" else "fp"))
    r.candidates;
  line "counts: retrieved=%d candidates=%d" r.n_retrieved (List.length r.candidates);
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
