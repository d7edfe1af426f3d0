(** Crash-primitive extraction by dynamic taint analysis (paper §III-A, P1).

    This is the OCaml analogue of the paper's PIN-based taint engine
    (§IV-A): byte-granular, covering both registers and memory, driven by the
    interpreter's per-instruction access events (Algorithm 1).

    Two modes are provided:

    - {!Context_aware} (the paper's contribution): every entry of [ep] opens
      a fresh {e bunch}; file bytes whose taint reaches an access performed
      inside the dynamic extent of [ep] are recorded in the current bunch,
      together with the concrete arguments of that [ep] invocation and the
      file position indicator at entry (the anchor used by the combining
      phase P3).

    - {!Plain} (the Table III baseline): same marking rule, but all
      primitives are merged into a single bunch anchored at the first [ep]
      entry — reproducing the failure mode the ablation demonstrates. *)

open Octo_vm

module Offsets = Set.Make (Int)

type mode =
  | Plain
  | Context_aware

(** Taint granularity (paper §IV-A: "software S processes poc at the byte
    character-level.  Therefore, we also handle the tainting at the byte
    character-level").  [Word_level] is the ablation baseline: every input
    byte is tainted with its whole aligned 4-byte file block, so crash
    primitives over-approximate and drag neighbouring guiding bytes of S
    into poc', which conflicts with T's own guiding constraints whenever
    the two headers differ. *)
type granularity =
  | Byte_level
  | Word_level

type bunch = {
  seq : int;  (** 1-based index of the [ep] entry this bunch belongs to *)
  prims : (int * int) list;
      (** crash primitives: (file offset in the original poc, byte value),
          sorted by offset *)
  ep_args : (int * bool) list;
      (** concrete arguments of this [ep] invocation, each flagged with
          whether it was tainted by the input file.  Only tainted arguments
          are replayed as constraints in T (untainted ones — fds, pointers,
          loop counters — legitimately differ between S and T). *)
  anchor : int;
      (** file position indicator of the input fd when [ep] was entered;
          bunch bytes live at [offset - anchor] relative to the indicator *)
  merged : bool;
      (** true for the {!Plain} baseline: this bunch is the union of every
          entry's primitives and will be located in poc' "at once" —
          contiguously from the first indicator — which is precisely why the
          context-free baseline fails on multi-entry vulnerabilities
          (Table III) *)
  sites : string list;
      (** functions (inside the dynamic extent of this [ep] entry) whose
          tainted memory accesses consumed the primitives — the ℓ
          access-site evidence the provenance layer reports; sorted *)
}

type result = {
  bunches : bunch list;       (** in entry order *)
  ep_entries : int;           (** how many times execution entered [ep] *)
  crash : Interp.crash option;(** the crash that ended the run, if any *)
  tainted_peak : int;         (** peak number of simultaneously tainted objects *)
  marked_offsets : int;       (** total distinct poc offsets marked as primitives *)
}

module Sites = Set.Make (String)

(* The shadow table: each tainted object's file offsets.  It is
   monomorphic, so no lookup reaches the polymorphic [caml_hash] and
   [compare]: an object hashes to an int built from its address or from
   its (frame id, register), and objects compare as ints.  A replay
   creates it with 64 buckets, an array small enough to be allocated in
   the minor heap (at most 256 words; a larger one goes straight to the
   major heap on every replay), and it grows by its own doubling.  A
   replay tracks a few dozen objects at a time (35 at most on the
   registry, pair 9). *)
module Shadow = Hashtbl.Make (struct
  type t = Interp.obj

  let equal (a : t) (b : t) =
    match (a, b) with
    | OMem x, OMem y -> x = y
    | OReg (f, r), OReg (g, q) -> f = g && r = q
    | _ -> false

  (* Addresses hash to even ints and registers (32 per frame) to odd ones,
     so the low bits that pick a bucket follow consecutive bytes and
     registers. *)
  let hash : t -> int = function
    | OMem a -> a lsl 1
    | OReg (f, r) -> (((f lsl 5) + r) lsl 1) lor 1
end)

(* Mutable extraction state threaded through the interpreter hooks. *)
type state = {
  taint : Offsets.t Shadow.t;
  mutable bunch_offsets : Offsets.t array; (* index = ep entry - 1 *)
  mutable bunch_args : (int * bool) list array;
  mutable bunch_anchor : int array;
  mutable bunch_sites : Sites.t array;
  mutable ep_count : int;
  mutable ep_depth : int;     (* dynamic-extent counter for recursive ep *)
  mutable fstack : string list;  (* dynamic call stack (function names) *)
  mutable file_pos : int;     (* tracked file position indicator *)
  mutable peak : int;
  ep : string;
}

let grow_bunches st =
  let n = st.ep_count in
  if n > Array.length st.bunch_offsets then begin
    let copy_into blank old = Array.blit old 0 blank 0 (Array.length old); blank in
    st.bunch_offsets <- copy_into (Array.make n Offsets.empty) st.bunch_offsets;
    st.bunch_args <- copy_into (Array.make n []) st.bunch_args;
    st.bunch_anchor <- copy_into (Array.make n 0) st.bunch_anchor;
    st.bunch_sites <- copy_into (Array.make n Sites.empty) st.bunch_sites
  end

let taint_of st obj =
  match Shadow.find_opt st.taint obj with Some s -> s | None -> Offsets.empty

let mark st offs =
  if st.ep_count >= 1 then begin
    let i = st.ep_count - 1 in
    st.bunch_offsets.(i) <- Offsets.union st.bunch_offsets.(i) offs;
    (* Access-site evidence: the function whose instruction consumed the
       tainted bytes is the top of the dynamic call stack. *)
    match st.fstack with
    | site :: _ -> st.bunch_sites.(i) <- Sites.add site st.bunch_sites.(i)
    | [] -> ()
  end

(* The taint-propagation rule of Algorithm 1 lines 7-11, joined over all read
   objects: tainted reads propagate their offset sets to every written
   object; an untainted assignment clears the destination. *)
let on_access st (a : Interp.access) =
  let influence =
    List.fold_left (fun acc o -> Offsets.union acc (taint_of st o)) Offsets.empty a.reads
  in
  if Offsets.is_empty influence then
    List.iter (fun o -> Shadow.remove st.taint o) a.writes
  else begin
    List.iter (fun o -> Shadow.replace st.taint o influence) a.writes;
    st.peak <- max st.peak (Shadow.length st.taint);
    (* P1.3: inside the dynamic extent of ep, tainted accesses mark their
       influencing file bytes as crash primitives of the current bunch. *)
    if st.ep_depth > 0 then mark st influence
  end

(* The hooks' cycle-skip opt-in: capture every mutable part of [st] and
   report whether it is still equal.  The consumer is a deterministic
   function of (its state, the event stream), so an unchanged state over
   one proven machine period means the withheld periods would not change
   it either. *)
let checkpoint st () =
  let taint = Shadow.copy st.taint in
  let offsets = Array.copy st.bunch_offsets
  and args = Array.copy st.bunch_args
  and anchor = Array.copy st.bunch_anchor
  and sites = Array.copy st.bunch_sites in
  let ep_count = st.ep_count
  and ep_depth = st.ep_depth
  and fstack = st.fstack
  and file_pos = st.file_pos
  and peak = st.peak in
  fun () ->
    st.ep_count = ep_count && st.ep_depth = ep_depth && st.file_pos = file_pos
    && st.peak = peak && st.fstack = fstack
    && Array.length st.bunch_offsets = Array.length offsets
    && Array.for_all2 Offsets.equal st.bunch_offsets offsets
    && st.bunch_args = args && st.bunch_anchor = anchor
    && Array.for_all2 Sites.equal st.bunch_sites sites
    && Shadow.length st.taint = Shadow.length taint
    && Shadow.fold
         (fun o offs same ->
           same
           && match Shadow.find_opt st.taint o with
              | Some offs' -> Offsets.equal offs offs'
              | None -> false)
         taint true

(** [extract ?mode program ~poc ~ep] runs [program] on [poc] under the taint
    engine and returns the crash primitives.  The run normally ends in the
    crash that [poc] provokes; a clean exit yields [crash = None] (callers
    treat that as "this poc does not witness the vulnerability").

    [compiled] lets the pipeline reuse an already-looked-up compilation of
    [prog] ({!Octo_vm.Compile.get}), skipping the content-digest cache
    lookup; it MUST be the compilation of [prog]. *)
let extract ?(mode = Context_aware) ?(granularity = Byte_level) ?compiled
    (prog : Isa.program) ~(poc : string) ~(ep : string) : result =
  let st =
    {
      taint = Shadow.create 64;
      bunch_offsets = [||];
      bunch_args = [||];
      bunch_anchor = [||];
      bunch_sites = [||];
      ep_count = 0;
      ep_depth = 0;
      fstack = [ prog.Isa.entry ];
      file_pos = 0;
      peak = 0;
      ep;
    }
  in
  let hooks =
    {
      Interp.no_hooks with
      on_access = (fun a -> on_access st a);
      on_input_bytes =
        (fun ~addr ~file_off ~len ->
          let source i =
            match granularity with
            | Byte_level -> Offsets.singleton (file_off + i)
            | Word_level ->
                (* Aligned 4-byte block of the file offset, clipped to the
                   file. *)
                let base = (file_off + i) land lnot 3 in
                let rec build k acc =
                  if k >= 4 then acc
                  else
                    build (k + 1)
                      (if base + k < String.length poc then Offsets.add (base + k) acc else acc)
                in
                build 0 Offsets.empty
          in
          for i = 0 to len - 1 do
            Shadow.replace st.taint (Interp.OMem (addr + i)) (source i)
          done;
          st.file_pos <- file_off + len;
          st.peak <- max st.peak (Shadow.length st.taint));
      on_seek = (fun ~fd:_ ~pos -> st.file_pos <- pos);
      on_call =
        (fun ~fname ~frame_id ~args ->
          st.fstack <- fname :: st.fstack;
          if fname = st.ep then begin
            st.ep_count <- st.ep_count + 1;
            st.ep_depth <- st.ep_depth + 1;
            grow_bunches st;
            (* The per-argument access events have already fired, so the
               callee's parameter registers carry their taint. *)
            st.bunch_args.(st.ep_count - 1) <-
              List.mapi
                (fun i v -> (v, not (Offsets.is_empty (taint_of st (Interp.OReg (frame_id, i))))))
                args;
            st.bunch_anchor.(st.ep_count - 1) <- st.file_pos
          end);
      on_ret =
        (fun fname ->
          (match st.fstack with top :: rest when top = fname -> st.fstack <- rest | _ -> ());
          if fname = st.ep then st.ep_depth <- max 0 (st.ep_depth - 1));
      checkpoint = Some (checkpoint st);
    }
  in
  let run_result =
    match compiled with
    | Some c -> Octo_vm.Compile.run ~hooks c ~input:poc
    | None -> Interp.run ~hooks prog ~input:poc
  in
  let crash = match run_result.outcome with Interp.Crashed c -> Some c | Interp.Exited _ -> None in
  let value_at off = if off >= 0 && off < String.length poc then Char.code poc.[off] else 0 in
  let bunch_of_set ~merged seq offs args anchor sites =
    { seq; prims = List.map (fun o -> (o, value_at o)) (Offsets.elements offs); ep_args = args;
      anchor; merged; sites = Sites.elements sites }
  in
  let bunches =
    match mode with
    | Context_aware ->
        List.init st.ep_count (fun i ->
            bunch_of_set ~merged:false (i + 1) st.bunch_offsets.(i) st.bunch_args.(i)
              st.bunch_anchor.(i) st.bunch_sites.(i))
    | Plain ->
        (* Baseline: one merged bunch, anchored at the first entry. *)
        if st.ep_count = 0 then []
        else
          let all = Array.fold_left Offsets.union Offsets.empty st.bunch_offsets in
          let all_sites = Array.fold_left Sites.union Sites.empty st.bunch_sites in
          [ bunch_of_set ~merged:true 1 all st.bunch_args.(0) st.bunch_anchor.(0) all_sites ]
  in
  let marked =
    List.fold_left (fun acc b -> Offsets.union acc (Offsets.of_list (List.map fst b.prims)))
      Offsets.empty bunches
    |> Offsets.cardinal
  in
  {
    bunches;
    ep_entries = st.ep_count;
    crash;
    tainted_peak = st.peak;
    marked_offsets = marked;
  }

let pp_bunch ppf b =
  let pp_arg ppf (v, tainted) = Fmt.pf ppf "%d%s" v (if tainted then "*" else "") in
  Fmt.pf ppf "bunch #%d (anchor %d, args [%a]): %a" b.seq b.anchor
    Fmt.(list ~sep:(any "; ") pp_arg)
    b.ep_args
    Fmt.(list ~sep:sp (pair ~sep:(any ":") int (fmt "0x%02x")))
    b.prims
