(** Deterministic corpus generator: mass-produced (S, T, PoC) pairs.

    Each generated pair is a pure function of [(seed, index)] — splitmix64
    streams drive every structural choice — so a corpus is never stored:
    any run (or a killed-and-resumed run on another machine) regenerates
    pair [i] bit-identically from its coordinates.

    The pairs reuse the Table II building blocks: a driver [main] built
    from the {!Dsl} idioms parses one of the six mini-format families
    (avi/gif/j2k/mjpg/mpdf/tif) and feeds a genuinely shared decoder from
    {!Shared} (the same [src_func] value is linked into S and T, so clone
    detection finds ℓ with identical fingerprints).  S always reaches the
    decoder's memory fault on the PoC; T is a seeded structural variant:

    - {b clone}: cosmetic clone edits only — the PoC still triggers
      (Type-I, the propagated-verbatim case).
    - {b guard}: T validates a format flag byte that S reads and ignores;
      the PoC carries the wrong byte, so the reformed poc' must flip it
      (Type-II, the paper's gif2png shape).
    - {b conflict}: T guards the decoder behind a check that contradicts
      the replayed crash primitives — a patched bound (len <= 8 vs the
      >= 17-byte overflow) or a rejected vulnerable tag — so P3 hits a
      constraint conflict (Type-III, the opj_compress shape).
    - {b deadep}: T links the decoder but never calls it
      (Type-III/[Ep_not_called], the libsdl2_img shape). *)

open Octo_vm.Isa
open Octo_vm.Asm
open Dsl
module F = Octo_formats.Formats
module Rng = Octo_util.Rng

type family = Gif | Mjpg | Mpdf | J2k | Avi | Tif
type variant = Clone | Guard | Conflict | Dead_ep

let families = [| Gif; Mjpg; Mpdf; J2k; Avi; Tif |]

let family_name = function
  | Gif -> "gif"
  | Mjpg -> "mjpg"
  | Mpdf -> "mpdf"
  | J2k -> "j2k"
  | Avi -> "avi"
  | Tif -> "tif"

let variant_name = function
  | Clone -> "clone"
  | Guard -> "guard"
  | Conflict -> "conflict"
  | Dead_ep -> "deadep"

(** The verdict class a correct pipeline must produce for each variant. *)
let expected_class = function
  | Clone -> "Type-I"
  | Guard -> "Type-II"
  | Conflict | Dead_ep -> "Type-III"

type gen_pair = {
  glabel : string;  (** sortable: ["g%05d-<family>-<variant>"] *)
  gfamily : family;
  gvariant : variant;
  gs : program;
  gt : program;
  gpoc : string;
  gexpected : string;  (** {!expected_class} of the variant *)
}

let magic = function
  | Gif -> F.Mgif.magic
  | Mjpg -> F.Mjpg.magic
  | Mpdf -> F.Mpdf.magic
  | J2k -> F.Mj2k.magic
  | Avi -> F.Mavi.magic
  | Tif -> F.Mtif.magic

(* The shared decoder each family drives, with its call-argument shape
   (2-arg decoders take (fd, len); 3-arg ones an extra index, constant in
   the generated drivers).  Tif is special-cased below: its decoder takes
   (tag, value) registers, not the file. *)
let decoder = function
  | Gif -> Shared.gif_read_image
  | Mjpg -> Shared.mjpg_scan
  | Mpdf -> Shared.font_copy
  | J2k -> Shared.j2k_tile
  | Avi -> Shared.codec_decode
  | Tif -> Shared.tif_get_field

(** [vuln_name fam] is the name of the family's shared vulnerable
    decoder — the annotation a scan probes with (what a VUDDY user
    starts from, mirroring {!Registry.case.vuln_func}). *)
let vuln_name = function
  | Gif -> "gif_read_image"
  | Mjpg -> "mjpg_scan"
  | Mpdf -> "font_copy"
  | J2k -> "j2k_tile"
  | Avi -> "codec_decode"
  | Tif -> "tif_get_field"

let decoder_call = function
  | Gif -> ("gif_read_image", [ Reg fd; Reg 18; Imm 0 ])
  | J2k -> ("j2k_tile", [ Reg fd; Reg 18; Imm 0 ])
  | Avi -> ("codec_decode", [ Reg fd; Reg 18; Imm 0 ])
  | Mjpg -> ("mjpg_scan", [ Reg fd; Reg 18 ])
  | Mpdf -> ("font_copy", [ Reg fd; Reg 18 ])
  | Tif -> assert false

(* Cosmetic clone edits: dead arithmetic on the scratch temporary, the
   kind of drift real propagation accrues without changing behaviour. *)
let clone_edits r =
  let n = 1 + Rng.int r 3 in
  List.concat
    (List.init n (fun _ ->
         let c = Rng.byte r and c' = Rng.byte r in
         [ I (Mov (t0, Imm c)); I (Bin (Add, t0, Reg t0, Imm c')) ]))

(* Driver for the stream families: magic, a format flag byte (S ignores
   it), a payload length byte, then the shared bounded-copy decoder.  The
   knobs carve the four variants out of one shape. *)
let stream_main fam ~edits ~guard ~conflict ~call =
  prologue
  @ check_magic ~fail:"bad" (magic fam)
  @ read_byte_or ~eof:"bad" 17 (* format flag *)
  @ (match guard with None -> [] | Some v -> [ I (Jif (Ne, Reg 17, Imm v, "bad")) ])
  @ edits
  @ read_byte_or ~eof:"bad" 18 (* payload length *)
  @ (if conflict then (* the downstream patch: lengths past 8 rejected *)
       [ I (Jif (Ge, Reg 18, Imm 9, "bad")) ]
     else [])
  @ (if call then
       let name, args = decoder_call fam in
       [ I (Call (name, args, Some 19)) ]
     else [])
  @ exit_with 0
  @ [ L "bad" ]
  @ exit_with 1

(* Driver for the tif family: magic, flag byte, entry count, then a
   directory loop feeding (tag, value) pairs to the field accessor — the
   tiffsplit shape, vulnerable through tag 0x3d. *)
let tif_main ~edits ~guard ~conflict ~call =
  prologue
  @ check_magic ~fail:"bad" F.Mtif.magic
  @ read_byte_or ~eof:"bad" 17 (* format flag *)
  @ (match guard with None -> [] | Some v -> [ I (Jif (Ne, Reg 17, Imm v, "bad")) ])
  @ edits
  @ read_byte_or ~eof:"bad" 20 (* entry count *)
  @ (if call then
       [ I (Mov (21, Imm 0)); L "ent"; I (Jif (Ge, Reg 21, Reg 20, "ok")) ]
       @ read_byte_or ~eof:"bad" 22 (* tag *)
       @ read_byte_or ~eof:"bad" 23 (* value *)
       @ (if conflict then (* the downstream patch: vulnerable tag rejected *)
            [ I (Jif (Eq, Reg 22, Imm F.Mtif.tag_vuln, "bad")) ]
          else [])
       @ [
           I (Call ("tif_get_field", [ Reg 22; Reg 23 ], Some 24));
           I (Bin (Add, 21, Reg 21, Imm 1));
           I (Jmp "ent");
           L "ok";
         ]
     else [])
  @ exit_with 0
  @ [ L "bad" ]
  @ exit_with 1

let build_program fam ~name ~edits ~guard ~conflict ~call =
  let body =
    if fam = Tif then tif_main ~edits ~guard ~conflict ~call
    else stream_main fam ~edits ~guard ~conflict ~call
  in
  assemble ~name ~entry:"main" [ fn "main" ~params:0 body; decoder fam ]

(* PoC layouts (generator-owned, matching the drivers above):
   stream families:  magic | flag | len | payload[len]   (len >= 17 so the
                     16-byte copy destination overflows)
   tif:              magic | flag | count | (tag value)*  (last entry tag
                     0x3d, the out-of-bounds write) *)
let build_poc fam r ~flag =
  let b = Buffer.create 64 in
  Buffer.add_string b (magic fam);
  Buffer.add_char b (Char.chr flag);
  (if fam = Tif then begin
     let nbenign = 1 + Rng.int r 2 in
     Buffer.add_char b (Char.chr (nbenign + 1));
     for _ = 1 to nbenign do
       Buffer.add_char b (Char.chr (1 + Rng.int r 3));
       Buffer.add_char b (Char.chr (Rng.byte r))
     done;
     Buffer.add_char b (Char.chr F.Mtif.tag_vuln);
     Buffer.add_char b (Char.chr (Rng.byte r))
   end
   else begin
     let plen = 17 + Rng.int r 24 in
     Buffer.add_char b (Char.chr plen);
     for _ = 1 to plen do
       Buffer.add_char b (Char.chr (Rng.byte r))
     done
   end);
  Buffer.contents b

(** [generate ~seed ~index] is pair [index] of the corpus seeded by
    [seed] — a pure function of its arguments.  Family, variant, clone
    edits, guard bytes and payload bytes are all drawn from one splitmix64
    stream derived from the coordinates. *)
let generate ~seed ~index =
  let r = Rng.create (seed lxor (index * 0x9E3779B9) lxor 0x6C62272E) in
  let fam = families.(Rng.int r (Array.length families)) in
  let variant =
    (* Weighted: verbatim propagation dominates real corpora. *)
    let d = Rng.int r 100 in
    if d < 40 then Clone else if d < 65 then Guard else if d < 85 then Conflict else Dead_ep
  in
  let label = Printf.sprintf "g%05d-%s-%s" index (family_name fam) (variant_name variant) in
  let v_req = Rng.byte r in
  let v_wrong = (v_req + 1 + Rng.int r 255) land 0xff in
  let s =
    build_program fam ~name:(label ^ "-s") ~edits:[] ~guard:None ~conflict:false ~call:true
  in
  let t =
    match variant with
    | Clone ->
        build_program fam ~name:(label ^ "-t") ~edits:(clone_edits r) ~guard:None
          ~conflict:false ~call:true
    | Guard ->
        build_program fam ~name:(label ^ "-t") ~edits:[] ~guard:(Some v_req) ~conflict:false
          ~call:true
    | Conflict ->
        build_program fam ~name:(label ^ "-t") ~edits:[] ~guard:None ~conflict:true
          ~call:true
    | Dead_ep ->
        build_program fam ~name:(label ^ "-t") ~edits:[] ~guard:None ~conflict:false
          ~call:false
  in
  let flag = match variant with Guard -> v_wrong | _ -> Rng.byte r in
  let poc = build_poc fam r ~flag in
  {
    glabel = label;
    gfamily = fam;
    gvariant = variant;
    gs = s;
    gt = t;
    gpoc = poc;
    gexpected = expected_class variant;
  }

(* ------------------------------------------------------------------ *)
(* Decoy targets for the clone-detection scan.

   A scan over pairs alone cannot measure precision: every indexed target
   genuinely links the vulnerable decoder, so every retrieval is a true
   positive.  Decoys are target-only programs seeded into the corpus to
   give the detector something to be wrong about, one kind per failure
   mode:

   - {b patched}: the decoder with its allocations enlarged 256x — the
     upstream fix.  Only two immediates move, so the winnowed index
     still retrieves it at high similarity; the validity filter's
     exact-clone test is what rejects it (retrieval over-approximates,
     validation decides).
   - {b mutated}: the decoder with one opcode-level edit and cosmetic
     driver drift — a near-clone that should be retrieved but never
     confirmed.
   - {b unrelated}: no decoder at all; must never be retrieved. *)

type decoy_kind = Patched | Mutated | Unrelated

let decoy_kind_name = function
  | Patched -> "patched"
  | Mutated -> "mutated"
  | Unrelated -> "unrelated"

(* The upstream fix: every allocation in the vulnerable function grows
   256x, so no generated PoC (payloads are single-byte-length bounded)
   can overflow it.  Only immediates change — the smallest edit the
   normalized token stream can register. *)
let patch_instr (ins : instr) : instr =
  match ins with Sys (Alloc (d, Imm n)) -> Sys (Alloc (d, Imm (n * 256))) | i -> i

(* One opcode-shape edit near the end of the function: the last Bin's
   operator flips Add<->Xor; a function without Bin (tif_get_field) flips
   its last Jif's relation instead.  Token-level change, so the
   fingerprint and part of the shingle set move. *)
let mutate_code (code : instr array) : instr array =
  let code = Array.copy code in
  let last p =
    let r = ref (-1) in
    Array.iteri (fun i ins -> if p ins then r := i) code;
    !r
  in
  let bin_at = last (function Bin _ -> true | _ -> false) in
  if bin_at >= 0 then begin
    (match code.(bin_at) with
    | Bin (op, d, x, y) ->
        let op' = match op with Add -> Xor | Xor -> Add | o -> o in
        code.(bin_at) <- Bin (op', d, x, y)
    | _ -> ());
    code
  end
  else begin
    let jif_at = last (function Jif _ -> true | _ -> false) in
    if jif_at >= 0 then
      (match code.(jif_at) with
      | Jif (r, a, b, t) ->
          let r' = match r with Eq -> Ne | Ne -> Eq | Lt -> Ge | Ge -> Lt | Le -> Gt | Gt -> Le in
          code.(jif_at) <- Jif (r', a, b, t)
      | _ -> ());
    code
  end

(* A program sharing no function shape with any family: a checksum
   driver.  The helper's body is loop-structured like nothing in
   {!Shared}, so no shingle window overlaps a decoder's. *)
let unrelated_program ~name r =
  let rounds = 1 + Rng.int r 6 in
  assemble ~name ~entry:"main"
    [
      fn "main" ~params:0
        (prologue
        @ read_byte_or ~eof:"end" t0
        @ [ I (Call ("csum", [ Reg t0; Imm rounds ], Some t0)) ]
        @ exit_with 0 @ [ L "end" ] @ exit_with 1);
      fn "csum" ~params:2
        [
          I (Mov (2, Imm 0));
          I (Mov (3, Imm 0));
          L "rounds";
          I (Jif (Ge, Reg 3, Reg 1, "out"));
          I (Bin (Mul, 2, Reg 2, Imm 31));
          I (Bin (Add, 2, Reg 2, Reg 0));
          I (Bin (And, 2, Reg 2, Imm 0xFFFF));
          I (Bin (Add, 3, Reg 3, Imm 1));
          I (Jmp "rounds");
          L "out";
          I (Ret (Reg 2));
        ];
    ]

(* Replace the named function's code in an assembled program; the func
   record and code array are fresh, so the shared [Shared] values other
   programs link are never mutated. *)
let rewrite_func (p : program) name f =
  match Hashtbl.find_opt p.funcs name with
  | None -> ()
  | Some df -> Hashtbl.replace p.funcs name { df with code = f df.code }

(** [decoy ~seed ~index] is decoy target [index] of the stream seeded by
    [seed] — like {!generate}, a pure function of its coordinates.  The
    kind cycles patched / mutated / unrelated by index; the family (for
    the first two kinds) and all cosmetic drift come from the splitmix64
    stream.  Returns [(label, program)]; labels sort as
    ["d%05d-<kind>-<family>"]. *)
let decoy ~seed ~index : string * program =
  let r = Rng.create (seed lxor (index * 0x85EBCA6B) lxor 0x165667B1) in
  let kind = match index mod 3 with 0 -> Patched | 1 -> Mutated | _ -> Unrelated in
  let fam = families.(Rng.int r (Array.length families)) in
  match kind with
  | Unrelated ->
      let label = Printf.sprintf "d%05d-%s-misc" index (decoy_kind_name kind) in
      (label, unrelated_program ~name:label r)
  | Patched | Mutated ->
      let label =
        Printf.sprintf "d%05d-%s-%s" index (decoy_kind_name kind) (family_name fam)
      in
      (* Cosmetic driver drift keeps decoy mains from fingerprint-matching
         any generated S main, so ℓ never accidentally includes main. *)
      let p =
        build_program fam ~name:label ~edits:(clone_edits r) ~guard:None ~conflict:false
          ~call:true
      in
      rewrite_func p (vuln_name fam)
        (if kind = Patched then Array.map patch_instr else mutate_code);
      (label, p)
