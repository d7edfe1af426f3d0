(** Vulnerable code-clone detection (VUDDY-style fingerprinting).

    The paper assumes ℓ — the set of functions shared between S and T — is
    given by an existing clone detector such as VUDDY [6].  We implement the
    substrate: every function body is normalised (abstraction level chosen by
    the caller) and hashed; two functions are clones when their fingerprints
    match.  Because MiniVM code is already register-canonical, normalisation
    concerns jump structure and callee names. *)

open Octo_vm.Isa

(** Abstraction level, mirroring VUDDY's levels:
    - [Exact]: the whole instruction stream, callee names included.
    - [Abstract_calls]: each direct call reduced to its arity and whether
      it has a destination, detecting clones whose helper functions were
      renamed during propagation. *)
type level = Exact | Abstract_calls

(* [Abstract_calls] keeps a direct call's arity and whether it has a
   destination; the callee, the argument operands and the destination
   register are replaced by constants. *)
let mask_call : instr -> instr = function
  | Call (_, args, dst) ->
      Call ("", List.map (fun _ -> Imm 0) args, Option.map (fun _ -> 0) dst)
  | ins -> ins

(** [fingerprint ?level f] hashes the normalised body of [f] (see the
    interface for the encoding). *)
let fingerprint ?(level = Exact) (f : func) : string =
  let code = match level with Exact -> f.code | Abstract_calls -> Array.map mask_call f.code in
  Digest.to_hex (Digest.string (Marshal.to_string (f.nparams, code) [ Marshal.No_sharing ]))

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
   program taking part in many pairs (a scan probe, a scan target) is
   fingerprinted once, not once per pair.  A profile is immutable once
   built. *)

type profile = {
  fps : (string * string) list;  (** (function name, fingerprint) *)
  by_fp : (string, string) Hashtbl.t;
      (** fingerprint -> names, added in the program's [funcs] iteration
          order, so [find_all] yields the candidate order of a direct
          scan of the program *)
}

let profile_of ?level (p : program) : profile =
  let n = Hashtbl.length p.funcs in
  let by_fp = Hashtbl.create n in
  let fps =
    Hashtbl.fold
      (fun name f acc ->
        let fp = fingerprint ?level f in
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

(** [shared_functions ?level s t] computes ℓ: every function of [s] whose
    fingerprint also occurs in [t].  Same-name matches are preferred;
    renamed clones are reported with [renamed = true]. *)
let shared_functions ?level (s : program) (t : program) : clone_pair list =
  join (profile_of ?level s) (profile_of ?level t)

let profile_fp (p : profile) name = List.assoc_opt name p.fps
let profile_has_fp (p : profile) fp = Hashtbl.mem p.by_fp fp
let profile_fingerprints (p : profile) = List.map snd p.fps

(* The profile table: bounded, keyed by (level, content digest), and
   reset when full like the compile cache.  A profile is immutable, so
   lookups hand out shared references safely across domains; callers
   that must see every program of a large pass exactly once (Scan) hold
   the references themselves rather than rely on the table. *)
let profiles : (level * string, profile) Hashtbl.t = Hashtbl.create 64
let profiles_lock = Mutex.create ()
let profiles_cap = 128

(* The profile of [p] and whether it was served from the table. *)
let lookup ~level ?digest (p : program) : profile * bool =
  let key = (level, match digest with Some d -> d | None -> Octo_vm.Compile.program_digest p) in
  Mutex.lock profiles_lock;
  let hit = Hashtbl.find_opt profiles key in
  Mutex.unlock profiles_lock;
  match hit with
  | Some pr -> (pr, true)
  | None ->
      let pr = profile_of ~level p in
      Mutex.lock profiles_lock;
      (* Keep whichever profile landed first, so concurrent callers
         share one reference. *)
      let pr =
        match Hashtbl.find_opt profiles key with
        | Some pr' -> pr'
        | None ->
            if Hashtbl.length profiles >= profiles_cap then Hashtbl.reset profiles;
            Hashtbl.add profiles key pr;
            pr
      in
      Mutex.unlock profiles_lock;
      (pr, false)

let profile ?(level = Exact) ?digest p = fst (lookup ~level ?digest p)

let profile_pair ?(level = Exact) ?sdig ?tdig (s : program) (t : program) =
  let sp, s_hit = lookup ~level ?digest:sdig s in
  let tp, t_hit = lookup ~level ?digest:tdig t in
  (* One hit per ℓ served wholly from the table: the counter means "one
     ℓ served from cache", not one per profile. *)
  if s_hit && t_hit then Octo_util.Metrics.incr Octo_util.Metrics.Cache_hits;
  (sp, tp)

let shared_functions_cached ?level ?sdig ?tdig (s : program) (t : program) :
    clone_pair list =
  let sp, tp = profile_pair ?level ?sdig ?tdig s t in
  join sp tp

(** [ell_names pairs] is the ℓ set as T-side function names — the form the
    OCTOPOCS pipeline consumes. *)
let ell_names pairs = List.map (fun p -> p.t_func) pairs

(** [is_vulnerable_clone_present s t ~vuln_func] answers the question a
    VUDDY user asks first: does T contain a clone of the known-vulnerable
    function of S? *)
let is_vulnerable_clone_present ?level (s : program) (t : program) ~vuln_func =
  match profile_fp (profile ?level s) vuln_func with
  | None -> false
  | Some fp -> profile_has_fp (profile ?level t) fp
