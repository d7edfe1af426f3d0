(** Clone-detection front-end: discovering (S, T, ℓ, ep) candidates.

    {!Clone} answers the question the paper takes as given — "are these
    two functions byte-identical clones?".  This module answers the
    retrieval question that precedes it at fleet scale (the VUDDY /
    VulCoCo workflow): given a corpus of target programs and the one
    function of S known to be vulnerable, which (S, T) pairs are worth
    verifying at all?

    The front-end has three layers:

    - {b Normalized fingerprinting}: every instruction is rendered as an
      opcode-shape token — registers renumbered by first occurrence
      (parameters keep their slots), callee names reduced to arity +
      return shape, jump targets made pc-relative; immediates and data
      symbols stay concrete (on register-canonical MiniVM code the
      constants are what distinguishes template-stamped functions).  A
      consistent renaming of non-parameter registers or a renamed helper
      therefore does not change a function's normalized shape, while any
      opcode-level edit does.

    - {b Winnowed k-gram shingles}: the token stream is hashed into
      overlapping k-grams and winnowed (per-window minima), giving each
      function a small shingle set.  An inverted index (shingle →
      postings) retrieves candidate target functions for a probe in time
      proportional to the overlap, and the probe-side containment ratio
      |probe ∩ target| / |probe| scores each hit — robust to the
      instruction insertions real propagation accrues.

    - {b Validity filter}: a retrieved (S, T) hit is confirmed into a
      verifiable candidate only if the vulnerable function is an exact
      clone in T under {!Clone}, the entry point ep recovers from S's
      own crash backtrace, and T-side CFG reachability of ep is recorded
      (never used to drop: a dead entry point is exactly the Type-III
      case (ii) the verifier must see).  Retrieval over-approximates
      (patched and mutated near-clones score high), and the exact test
      decides: OCTOPOCS verifies cloned code, so a near-clone is never a
      positive. *)

open Octo_vm.Isa
module Cfg = Octo_cfg.Cfg
module Interp = Octo_vm.Interp

(** Detection parameters.  [tau_retrieve] is a probe-side containment
    ratio in [0, 1] that gates index hits. *)
type params = {
  shingle_k : int;  (** k-gram length over the token stream *)
  winnow_w : int;  (** winnowing window (k-grams per selection window) *)
  tau_retrieve : float;  (** retrieval threshold *)
}

let default_params = { shingle_k = 4; winnow_w = 4; tau_retrieve = 0.5 }

(* ------------------------------------------------------------------ *)
(* Normalized tokenization. *)

(* 61-bit FNV-style string hash: deterministic across OCaml versions and
   platforms (goldens and the bench gate pin shingle counts), unlike
   [Hashtbl.hash].  Masked to 61 bits so every hash is a nonnegative
   native int on 64-bit systems. *)
let mask61 = (1 lsl 61) - 1
let fnv_prime = 0x100000001B3

let hash_string s =
  let h = ref 0x27220A95 in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime land mask61) s;
  !h

(** [tokens f] is the normalized token stream of [f]: one opcode-shape
    token per instruction.  Registers are renumbered by first occurrence
    (parameter registers keep their canonical slots 0..n-1), callee names
    become ["call<arity,r|->"], jump targets pc-relative offsets;
    immediates and data symbols stay concrete.  Exposed for the property
    tests. *)
let tokens (f : func) : string list =
  let map = Hashtbl.create 32 in
  let next = ref f.nparams in
  for i = 0 to f.nparams - 1 do
    Hashtbl.replace map i i
  done;
  let reg r =
    match Hashtbl.find_opt map r with
    | Some n -> n
    | None ->
        let n = !next in
        incr next;
        Hashtbl.replace map r n;
        n
  in
  let rg r = Printf.sprintf "v%d" (reg r) in
  (* Immediates and data symbols stay concrete: on register-canonical
     MiniVM code the constants ARE the code's identity (the family
     decoders differ only by their tag/bound immediates), so abstracting
     them collapses every template-stamped wrapper into one shape and
     retrieval drowns in cross-family hits.  Rename-invariance only needs
     registers and callee names abstracted. *)
  let op = function
    | Reg r -> rg r
    | Imm i -> "#" ^ string_of_int i
    | Sym s -> "@" ^ s
  in
  let ops xs = String.concat "," (List.map op xs) in
  let dst = function Some r -> rg r | None -> "-" in
  let tok pc (ins : instr) =
    match ins with
    | Mov (d, a) -> Printf.sprintf "mov %s,%s" (rg d) (op a)
    | Bin (b, d, x, y) ->
        Printf.sprintf "%s %s,%s,%s" (string_of_binop b) (rg d) (op x) (op y)
    | Load8 (d, b, o) -> Printf.sprintf "ld8 %s,%s,%s" (rg d) (op b) (op o)
    | Store8 (b, o, v) -> Printf.sprintf "st8 %s,%s,%s" (op b) (op o) (op v)
    | LoadW (d, b, o) -> Printf.sprintf "ldw %s,%s,%s" (rg d) (op b) (op o)
    | StoreW (b, o, v) -> Printf.sprintf "stw %s,%s,%s" (op b) (op o) (op v)
    | Jmp t -> Printf.sprintf "jmp %+d" (t - pc)
    | Jif (r, a, b, t) ->
        Printf.sprintf "j%s %s,%s,%+d" (string_of_relop r) (op a) (op b) (t - pc)
    | Call (_, args, d) ->
        Printf.sprintf "call<%d,%s>(%s)" (List.length args)
          (match d with Some _ -> "r" | None -> "-")
          (ops args)
    | Icall (f, args, d) -> Printf.sprintf "icall %s(%s)->%s" (op f) (ops args) (dst d)
    | Ret v -> Printf.sprintf "ret %s" (op v)
    | Sys (Open r) -> Printf.sprintf "sys.open %s" (rg r)
    | Sys (Read (d, fd, buf, len)) ->
        Printf.sprintf "sys.read %s,%s,%s,%s" (rg d) (op fd) (op buf) (op len)
    | Sys (Seek (fd, p)) -> Printf.sprintf "sys.seek %s,%s" (op fd) (op p)
    | Sys (Tell (d, fd)) -> Printf.sprintf "sys.tell %s,%s" (rg d) (op fd)
    | Sys (Fsize (d, fd)) -> Printf.sprintf "sys.fsize %s,%s" (rg d) (op fd)
    | Sys (Mmap (d, fd)) -> Printf.sprintf "sys.mmap %s,%s" (rg d) (op fd)
    | Sys (Alloc (d, sz)) -> Printf.sprintf "sys.alloc %s,%s" (rg d) (op sz)
    | Sys (Exit c) -> Printf.sprintf "sys.exit %s" (op c)
    | Sys (Emit v) -> Printf.sprintf "sys.emit %s" (op v)
    | Halt -> "halt"
  in
  Array.to_list (Array.mapi tok f.code)

(** [fingerprint_norm f] digests the normalized token stream — the
    rename-invariant analogue of {!Clone.fingerprint}.  Invariant under
    register renaming and helper renaming; sensitive to any opcode-level
    or constant edit. *)
let fingerprint_norm (f : func) : string =
  Digest.to_hex
    (Digest.string (string_of_int f.nparams ^ ";" ^ String.concat ";" (tokens f)))

(* ------------------------------------------------------------------ *)
(* Winnowed k-gram shingles. *)

module ISet = Set.Make (Int)

(* Every k-gram hash of [f]'s normalized token stream, in stream order;
   a function shorter than [k] tokens gives the single hash of its whole
   stream. *)
let gram_hashes ~k (f : func) : int array =
  let toks = Array.of_list (tokens f) in
  let n = Array.length toks in
  if n = 0 then [||]
  else if n < k then
    [| hash_string (string_of_int f.nparams ^ String.concat ";" (Array.to_list toks)) |]
  else begin
    let th = Array.map hash_string toks in
    Array.init (n - k + 1) (fun i ->
        let g = ref 0x165667B1 in
        for j = i to i + k - 1 do
          g := (!g * fnv_prime lxor th.(j)) land mask61
        done;
        !g)
  end

(** [shingles ~k ~w f] is the winnowed k-gram shingle set of [f]'s
    normalized token stream: hash every window of [k] consecutive token
    hashes, then keep each [w]-window's minimum (rightmost on ties) —
    Schleimer-style winnowing, so near-identical functions select
    near-identical shingles.  A function shorter than [k] tokens
    contributes the single hash of its whole stream. *)
let shingles ~k ~w (f : func) : ISet.t =
  let grams = gram_hashes ~k f in
  let m = Array.length grams in
  if m = 0 then ISet.empty
  else if m <= w then begin
    (* One short window: select its minimum. *)
    let best = ref grams.(0) in
    Array.iter (fun g -> if g <= !best then best := g) grams;
    ISet.singleton !best
  end
  else begin
    let sel = ref ISet.empty in
    for i = 0 to m - w do
      let best = ref grams.(i) in
      for j = i + 1 to i + w - 1 do
        if grams.(j) <= !best then best := grams.(j)
      done;
      sel := ISet.add !best !sel
    done;
    !sel
  end

(* ------------------------------------------------------------------ *)
(* Inverted index: shingle -> postings of (target label, function). *)

type index = {
  ix_params : params;
  postings : (int, (string * string) list ref) Hashtbl.t;
  mutable n_programs : int;
  mutable n_funcs : int;
  mutable n_postings : int;  (** total (shingle, function) entries *)
}

let index_create params =
  {
    ix_params = params;
    postings = Hashtbl.create 1024;
    n_programs = 0;
    n_funcs = 0;
    n_postings = 0;
  }

let index_stats ix = (ix.n_programs, ix.n_funcs, ix.n_postings)

(** [index_add ix ~label t] fingerprints every function of target
    program [t] under corpus label [label] and inserts its shingles. *)
let index_add ix ~label (t : program) =
  ix.n_programs <- ix.n_programs + 1;
  Hashtbl.iter
    (fun fname f ->
      let sh = shingles ~k:ix.ix_params.shingle_k ~w:ix.ix_params.winnow_w f in
      ix.n_funcs <- ix.n_funcs + 1;
      ISet.iter
        (fun s ->
          (match Hashtbl.find_opt ix.postings s with
          | Some l -> l := (label, fname) :: !l
          | None -> Hashtbl.add ix.postings s (ref [ (label, fname) ]));
          ix.n_postings <- ix.n_postings + 1)
        sh)
    t.funcs

(** A retrieval hit: target function [h_func] of corpus entry [h_label]
    shares fraction [h_score] of the probe's shingles. *)
type hit = { h_label : string; h_func : string; h_score : float }

(** [query ix probe] retrieves every indexed function whose probe-side
    containment |probe ∩ target| / |probe| clears [tau_retrieve], best
    score first (label, then function name, as tiebreaks — the order is
    deterministic for goldens). *)
let query ix (probe : func) : hit list =
  let sh = shingles ~k:ix.ix_params.shingle_k ~w:ix.ix_params.winnow_w probe in
  let total = ISet.cardinal sh in
  if total = 0 then []
  else begin
    let counts : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
    ISet.iter
      (fun s ->
        match Hashtbl.find_opt ix.postings s with
        | None -> ()
        | Some l ->
            List.iter
              (fun key ->
                Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0))
              !l)
      sh;
    Hashtbl.fold
      (fun (label, fname) c acc ->
        let score = float_of_int c /. float_of_int total in
        if score >= ix.ix_params.tau_retrieve then
          { h_label = label; h_func = fname; h_score = score } :: acc
        else acc)
      counts []
    |> List.sort (fun a b ->
           match compare b.h_score a.h_score with
           | 0 -> compare (a.h_label, a.h_func) (b.h_label, b.h_func)
           | c -> c)
  end

(* ------------------------------------------------------------------ *)
(* Validity filter: hit -> confirmed (S, T, ℓ, ep) candidate. *)

(** A confirmed candidate: everything the verifier needs, plus the
    evidence the filter based its decision on. *)
type candidate = {
  c_s_label : string;  (** probe-side corpus label *)
  c_t_label : string;  (** target-side corpus label *)
  c_vuln_func : string;  (** S-side vulnerable function (the probe) *)
  c_hit_func : string;  (** matched T-side function *)
  c_score : float;  (** the hit's retrieval score ([h_score]) *)
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
    ~t_label ~vuln_func ~(s_crash : Interp.crash option) (h : hit) :
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
              c_score = h.h_score;
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
