(** Clone-detection front-end: discovering (S, T, ℓ, ep) candidates.

    {!Clone} answers the question the paper takes as given — "are these
    two functions byte-identical clones?".  This module answers the
    retrieval question that precedes it at fleet scale (the VUDDY
    workflow): given a corpus of target programs and the one function of
    S known to be vulnerable, which (S, T) pairs are worth verifying at
    all?

    The front-end has two layers:

    - {b Fingerprint retrieval}: an index maps each exact
      {!Clone.fingerprint} of the targets' functions to the labels of the
      targets that link it.  A probe's hits are exactly the targets that
      hold its fingerprint — the scan's ground-truth relation — one hit
      per target, however many names the target links the function
      under.

    - {b Validity filter}: a hit is confirmed into a verifiable candidate
      only if ℓ aligns the vulnerable function ({!Clone.join}), the entry
      point ep recovers from S's own crash backtrace, and T-side CFG
      reachability of ep is recorded (never used to drop: a dead entry
      point is exactly the Type-III case (ii) the verifier must see).
      Over the index's own hits, alignment always succeeds; a hit fails
      only when S does not crash on its PoC or no frame of its backtrace
      lies in ℓ. *)

open Octo_vm.Isa
module Cfg = Octo_cfg.Cfg
module Interp = Octo_vm.Interp

(* Detection has no parameters; see the interface. *)
type params = unit

let default_params = ()

(* ------------------------------------------------------------------ *)
(* Exact-fingerprint index: fingerprint -> target labels. *)

type index = {
  labels : (string, string) Hashtbl.t;
      (** fingerprint -> label, bound once per target that links it *)
  mutable n_programs : int;
  mutable n_funcs : int;
}

let index_create (_ : params) = { labels = Hashtbl.create 1024; n_programs = 0; n_funcs = 0 }
let index_stats ix = (ix.n_programs, ix.n_funcs, Hashtbl.length ix.labels)

(** [index_add_profile ix ~label tp] inserts every distinct fingerprint
    of the target profiled as [tp] under corpus label [label]. *)
let index_add_profile ix ~label (tp : Clone.profile) =
  let fps = Clone.profile_fingerprints tp in
  ix.n_programs <- ix.n_programs + 1;
  ix.n_funcs <- ix.n_funcs + List.length fps;
  List.iter (fun fp -> Hashtbl.add ix.labels fp label) (List.sort_uniq String.compare fps)

(** [index_add ix ~label t] is {!index_add_profile} over [t]'s profile
    from the profile table. *)
let index_add ix ~label (t : program) = index_add_profile ix ~label (Clone.profile t)

(** A retrieval hit: corpus entry [h_label] links the probe's exact
    fingerprint. *)
type hit = { h_label : string }

(** [query ix probe] is one hit per indexed target that links [probe]'s
    exact fingerprint, in the order the targets were added. *)
let query ix (probe : func) : hit list =
  Hashtbl.find_all ix.labels (Clone.fingerprint probe)
  |> List.rev_map (fun label -> { h_label = label })

(* ------------------------------------------------------------------ *)
(* Validity filter: hit -> confirmed (S, T, ℓ, ep) candidate. *)

(** A confirmed candidate: everything the verifier needs, plus the
    evidence the filter based its decision on. *)
type candidate = {
  c_s_label : string;  (** probe-side corpus label *)
  c_t_label : string;  (** target-side corpus label *)
  c_vuln_func : string;  (** S-side vulnerable function (the probe) *)
  c_hit_func : string;  (** matched T-side function *)
  c_ell : string list;  (** ℓ as T-side names, sorted *)
  c_ep : string;  (** recovered entry point (T-side name) *)
  c_reachable : bool option;
      (** T-side CFG: is [c_ep] called from reachable code?  [None] when
          CFG recovery failed ({!Cfg.Cfg_error}); recorded, never used to
          reject — a dead ep is the verifier's Type-III case (ii) *)
}

(** [s_crash ?max_steps s ~poc] replays S on its own PoC and returns the
    crash, or [None] when the PoC does not crash S — in which case no
    candidate probed from S can be confirmed (there is no crash path to
    recover an entry point from). *)
let s_crash ?max_steps (s : program) ~poc : Interp.crash option =
  match (Interp.run ?max_steps s ~input:poc).outcome with
  | Interp.Crashed c -> Some c
  | Interp.Exited _ -> None
  | exception _ -> None

(** [confirm_profiled ~sp ~tp ~s_label ~t ~t_label ~vuln_func ~s_crash hit]
    applies the validity filter to one retrieval hit, with [sp]/[tp] the
    {!Clone.profile}s of S and [t]:

    + shared-region alignment: ℓ is the exact join of the two profiles
      ({!Clone.join}); the hit survives only if [vuln_func] is in it;
    + entry-point recovery: the first crash-backtrace frame of S that
      belongs to ℓ, mapped to its T-side name, is ep — mirroring the
      pipeline's own {!Octopocs.identify_ep}, so a confirmed diagonal
      candidate verifies under the very same ep;
    + reachability: whether T's CFG calls ep from reachable code is
      recorded in [c_reachable] (a CFG failure records [None]).

    [None] when the hit fails alignment or no entry point recovers. *)
let confirm_profiled ~(sp : Clone.profile) ~(tp : Clone.profile) ~s_label ~(t : program)
    ~t_label ~vuln_func ~(s_crash : Interp.crash option) (_ : hit) :
    candidate option =
  let pairs = Clone.join sp tp in
  match
    (List.find_opt (fun (cp : Clone.clone_pair) -> cp.s_func = vuln_func) pairs, s_crash)
  with
  | None, _ | _, None -> None
  | Some vuln, Some crash -> (
      let mapping = List.map (fun (cp : Clone.clone_pair) -> (cp.s_func, cp.t_func)) pairs in
      match List.find_map (fun fr -> List.assoc_opt fr mapping) crash.backtrace with
      | None -> None
      | Some ep ->
          let reachable =
            match Cfg.ep_called_somewhere t ~ep with
            | b -> Some b
            | exception Cfg.Cfg_error _ -> None
          in
          Some
            {
              c_s_label = s_label;
              c_t_label = t_label;
              c_vuln_func = vuln_func;
              c_hit_func = vuln.t_func;
              c_ell = List.sort_uniq compare (List.map snd mapping);
              c_ep = ep;
              c_reachable = reachable;
            })

(** [confirm params ?sdig ?tdig ~s ~s_label ~t ~t_label ~vuln_func ~s_crash
    hit] is {!confirm_profiled} over the profile table's profiles of [s]
    and [t] ({!Clone.profile_pair}); [sdig]/[tdig] are their
    {!Octo_vm.Compile.program_digest} values when already computed.
    [params] is unused. *)
let confirm _params ?sdig ?tdig ~(s : program) ~s_label ~(t : program) ~t_label ~vuln_func
    ~s_crash (h : hit) : candidate option =
  let sp, tp = Clone.profile_pair ?sdig ?tdig s t in
  confirm_profiled ~sp ~tp ~s_label ~t ~t_label ~vuln_func ~s_crash h
