(** Vulnerable code-clone detection (VUDDY-style fingerprinting).

    The paper assumes ℓ — the set of functions shared between S and T — is
    given by an existing clone detector such as VUDDY [6].  We implement the
    substrate: every function body is hashed whole, callee names included
    (VUDDY's exact level); two functions are clones when their fingerprints
    match.  MiniVM code is already register-canonical, so no further
    normalisation is needed. *)

open Octo_vm.Isa

(** [fingerprint f] hashes the body of [f] (see the interface for the
    encoding). *)
let fingerprint (f : func) : string =
  Digest.to_hex (Digest.string (Marshal.to_string (f.nparams, f.code) [ Marshal.No_sharing ]))

(** A detected clone pair. *)
type clone_pair = {
  s_func : string;
  t_func : string;
  renamed : bool;  (** the clone carries a different name in T *)
}

(* ------------------------------------------------------------------ *)
(* Clone profiles.

   Everything ℓ needs from one program — every function's fingerprint and
   an fp -> names index — depends on that program alone, so a profile
   computes it once per program and ℓ is a join of two profiles: a
   caller holding the profiles of a program taking part in many pairs (a
   scan probe, a scan target) fingerprints it once, not once per pair.  A
   profile is immutable once built. *)

type profile = {
  fps : (string * string) list;  (** (function name, fingerprint) *)
  by_fp : (string, string) Hashtbl.t;
      (** fingerprint -> names, added in the program's [funcs] iteration
          order, so [find_all] yields the candidate order of a direct
          scan of the program *)
}

let profile (p : program) : profile =
  let n = Hashtbl.length p.funcs in
  let by_fp = Hashtbl.create n in
  let fps =
    Hashtbl.fold
      (fun name f acc ->
        let fp = fingerprint f in
        Hashtbl.add by_fp fp name;
        (name, fp) :: acc)
      p.funcs []
  in
  (* In iteration order, so a shadowed binding never precedes the
     current one. *)
  { fps = List.rev fps; by_fp }

(** The join: every function of [sp] whose fingerprint occurs in [tp],
    matched to its same-name clone when there is one, otherwise to the
    first candidate. *)
let join (sp : profile) (tp : profile) : clone_pair list =
  List.filter_map
    (fun (s_name, fp) ->
      match Hashtbl.find_all tp.by_fp fp with
      | [] -> None
      | candidates ->
          let t_name = if List.mem s_name candidates then s_name else List.hd candidates in
          Some { s_func = s_name; t_func = t_name; renamed = t_name <> s_name })
    sp.fps
  |> List.sort compare

(** [shared_functions s t] computes ℓ: every function of [s] whose
    fingerprint also occurs in [t].  Same-name matches are preferred;
    renamed clones are reported with [renamed = true]. *)
let shared_functions (s : program) (t : program) : clone_pair list =
  join (profile s) (profile t)

let profile_fp (p : profile) name = List.assoc_opt name p.fps
let profile_fingerprints (p : profile) = List.map snd p.fps

(** [ell_names pairs] is the ℓ set as T-side function names — the form the
    OCTOPOCS pipeline consumes. *)
let ell_names pairs = List.map (fun p -> p.t_func) pairs
