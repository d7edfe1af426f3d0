(** Clone-detection front-end: retrieving (S, T) candidates.

    {!Clone} answers the question the paper takes as given — "are these
    two functions byte-identical clones?".  This module answers the
    retrieval question that precedes it at fleet scale (the VUDDY
    workflow): given a corpus of target programs and the one function of
    S known to be vulnerable, which (S, T) pairs are worth verifying at
    all?

    An index maps each exact {!Clone.fingerprint} of the targets'
    functions to the labels of the targets that link it.  A probe's hits
    are exactly the targets that hold its fingerprint, one hit per
    target, however many names the target links the function under.
    Every hit is a candidate; the OCTOPOCS pipeline is its validator
    (VulCoCo's retrieve-then-validate split), so nothing here crashes S
    or recovers ep except the harness-only {!confirm}. *)

open Octo_vm.Isa
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

(** [index_add ix ~label t] is {!index_add_profile} over a fresh profile
    of [t]. *)
let index_add ix ~label (t : program) = index_add_profile ix ~label (Clone.profile t)

(** A retrieval hit: corpus entry [h_label] links the probe's exact
    fingerprint. *)
type hit = { h_label : string }

(** [query ix probe] is one hit per indexed target that links [probe]'s
    exact fingerprint, in the order the targets were added. *)
let query ix (probe : func) : hit list =
  Hashtbl.find_all ix.labels (Clone.fingerprint probe)
  |> List.rev_map (fun label -> { h_label = label })

(** A scan candidate: one hit, with ℓ as the sorted T-side names of the
    join. *)
type candidate = {
  c_s_label : string;  (** probe-side corpus label *)
  c_t_label : string;  (** target-side corpus label *)
  c_ell : string list;  (** ℓ as T-side names, sorted *)
}

(* Harness-only (see the interface). *)
let s_crash ?max_steps (s : program) ~poc : Interp.crash option =
  match (Interp.run ?max_steps s ~input:poc).outcome with
  | Interp.Crashed c -> Some c
  | Interp.Exited _ -> None
  | exception _ -> None

(* Harness-only (see the interface). *)
let confirm _params ?sdig:_ ?tdig:_ ~(s : program) ~s_label ~(t : program) ~t_label ~vuln_func
    ~(s_crash : Interp.crash option) (_ : hit) : candidate option =
  let pairs = Clone.join (Clone.profile s) (Clone.profile t) in
  let mapping = List.map (fun (cp : Clone.clone_pair) -> (cp.s_func, cp.t_func)) pairs in
  match s_crash with
  | Some crash
    when List.mem_assoc vuln_func mapping
         && List.exists (fun fr -> List.mem_assoc fr mapping) crash.backtrace ->
      Some
        {
          c_s_label = s_label;
          c_t_label = t_label;
          c_ell = List.sort_uniq compare (List.map snd mapping);
        }
  | _ -> None
