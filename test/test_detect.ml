(* Clone-detection front-end tests: the normalization invariants the
   fingerprint promises (property tests over random MiniVM functions),
   the retrieve / confirm split (decoys retrieved but never
   confirmed), the strict/lenient directory-source contract, the golden
   scan report over the registry, and the differential check that a scan
   over the generated corpus rediscovers its own clone variants and
   verifies them to the annotated verdict classes.

   Golden regeneration (after an INTENTIONAL change, from the repo root):

     OCTOPOCS_REGEN_GOLDEN=$PWD/test/golden_table2.txt dune runtest --force

   (the env var names the Table II golden; every golden file — including
   [golden_scan_registry.txt] — is rewritten into its directory). *)

open Octo_vm.Isa
module Q = Qcheck_lite
module Detect = Octo_clone.Detect
module Scan = Octo_targets.Scan
module Source = Octo_targets.Source
module Corpus = Octo_targets.Corpus
module Rng = Octo_util.Rng

(* -- random MiniVM functions ------------------------------------------- *)

let nregs = 8

let gen_operand : operand Q.gen =
  Q.oneof
    [|
      Q.map (fun r -> Reg r) (Q.int_range 0 (nregs - 1));
      Q.map (fun i -> Imm i) (Q.int_range 0 300);
    |]

let gen_binop : binop Q.gen =
  Q.oneof [| Q.return Add; Q.return Sub; Q.return Mul; Q.return Xor; Q.return Shl |]

let gen_relop : relop Q.gen =
  Q.oneof
    [| Q.return Eq; Q.return Ne; Q.return Lt; Q.return Le; Q.return Gt; Q.return Ge |]

(* One instruction with jump targets valid for a [len]-instruction body. *)
let gen_instr ~len : instr Q.gen =
  let reg = Q.int_range 0 (nregs - 1) in
  let tgt = Q.int_range 0 (len - 1) in
  Q.oneof
    [|
      (fun rng -> Mov (reg rng, gen_operand rng));
      (fun rng -> Bin (gen_binop rng, reg rng, gen_operand rng, gen_operand rng));
      (fun rng -> Load8 (reg rng, gen_operand rng, gen_operand rng));
      (fun rng -> Store8 (gen_operand rng, gen_operand rng, gen_operand rng));
      (fun rng -> LoadW (reg rng, gen_operand rng, gen_operand rng));
      (fun rng -> StoreW (gen_operand rng, gen_operand rng, gen_operand rng));
      (fun rng -> Jmp (tgt rng));
      (fun rng -> Jif (gen_relop rng, gen_operand rng, gen_operand rng, tgt rng));
      (fun rng ->
        Call
          ( "h" ^ string_of_int (Q.int_range 0 3 rng),
            Q.list_of (Q.int_range 0 2) gen_operand rng,
            if Q.bool rng then Some (reg rng) else None ));
      (fun rng -> Ret (gen_operand rng));
      (fun rng -> Sys (Alloc (reg rng, gen_operand rng)));
      (fun rng -> Sys (Emit (gen_operand rng)));
      Q.return Halt;
    |]

let gen_func : func Q.gen =
 fun rng ->
  let nparams = Q.int_range 0 3 rng in
  let len = Q.int_range 1 24 rng in
  { fname = "f"; nparams; code = Array.init len (fun _ -> gen_instr ~len rng) }

(* A permutation of registers that fixes the parameter slots 0..n-1 and
   permutes only the non-parameter registers among themselves — the exact
   invariance [fingerprint_norm] claims.  (A permutation that moved a
   scratch register INTO a parameter slot would rightly change the
   canonical stream: parameter slots are pinned.) *)
let gen_nonparam_perm ~nparams : int array Q.gen =
 fun rng ->
  let perm = Array.init 32 (fun i -> i) in
  for i = 31 downto nparams + 1 do
    let j = nparams + Rng.int rng (i - nparams + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  perm

let map_syscall m mo = function
  | Open r -> Open (m r)
  | Read (d, fd, buf, len) -> Read (m d, mo fd, mo buf, mo len)
  | Seek (fd, p) -> Seek (mo fd, mo p)
  | Tell (d, fd) -> Tell (m d, mo fd)
  | Fsize (d, fd) -> Fsize (m d, mo fd)
  | Mmap (d, fd) -> Mmap (m d, mo fd)
  | Alloc (d, sz) -> Alloc (m d, mo sz)
  | Exit c -> Exit (mo c)
  | Emit v -> Emit (mo v)

(* Apply a register permutation and a callee-renaming to a function. *)
let rewrite ?(callee = fun n -> n) (perm : int array) (f : func) : func =
  let m r = perm.(r) in
  let mo = function Reg r -> Reg (m r) | o -> o in
  let mi = function
    | Mov (d, a) -> Mov (m d, mo a)
    | Bin (b, d, x, y) -> Bin (b, m d, mo x, mo y)
    | Load8 (d, b, o) -> Load8 (m d, mo b, mo o)
    | Store8 (b, o, v) -> Store8 (mo b, mo o, mo v)
    | LoadW (d, b, o) -> LoadW (m d, mo b, mo o)
    | StoreW (b, o, v) -> StoreW (mo b, mo o, mo v)
    | Jmp t -> Jmp t
    | Jif (r, a, b, t) -> Jif (r, mo a, mo b, t)
    | Call (n, args, d) -> Call (callee n, List.map mo args, Option.map m d)
    | Icall (fp, args, d) -> Icall (mo fp, List.map mo args, Option.map m d)
    | Ret v -> Ret (mo v)
    | Sys s -> Sys (map_syscall m mo s)
    | Halt -> Halt
  in
  { f with code = Array.map mi f.code }

(* A mutation guaranteed to change the instruction's opcode-shape token:
   every arm either changes the opcode, flips a binop/relop, or perturbs
   a concrete operand. *)
let bump = function Imm i -> Imm (i + 1) | Reg _ | Sym _ -> Imm 0

let mutate = function
  | Mov (d, a) -> Bin (Add, d, a, Imm 1)
  | Bin (b, d, x, y) -> Bin ((if b = Xor then Add else Xor), d, x, y)
  | Load8 (d, b, o) -> LoadW (d, b, o)
  | LoadW (d, b, o) -> Load8 (d, b, o)
  | Store8 (b, o, v) -> StoreW (b, o, v)
  | StoreW (b, o, v) -> Store8 (b, o, v)
  | Jmp t -> Jif (Eq, Imm 0, Imm 0, t)
  | Jif (r, a, b, t) -> Jif ((if r = Eq then Ne else Eq), a, b, t)
  | Call (n, args, d) -> Call (n, Imm 7 :: args, d)
  | Icall (f, args, d) -> Icall (f, Imm 7 :: args, d)
  | Ret v -> Sys (Exit v)
  | Sys (Exit v) -> Ret v
  | Sys (Open r) -> Sys (Tell (r, Imm 0))
  | Sys (Read (d, fd, buf, len)) -> Sys (Read (d, fd, buf, bump len))
  | Sys (Seek (fd, p)) -> Sys (Seek (fd, bump p))
  | Sys (Tell (d, fd)) -> Sys (Fsize (d, fd))
  | Sys (Fsize (d, fd)) -> Sys (Tell (d, fd))
  | Sys (Mmap (d, sz)) -> Sys (Alloc (d, sz))
  | Sys (Alloc (d, sz)) -> Sys (Mmap (d, sz))
  | Sys (Emit v) -> Sys (Emit (bump v))
  | Halt -> Ret (Imm 0)

(* -- properties -------------------------------------------------------- *)

(* Consistent renaming of non-parameter registers plus helper renaming
   changes neither the fingerprint nor the shingle set. *)
let prop_rename_invariant =
  Q.check_prop ~name:"rename invariance" ~seed:1101
    (fun rng ->
      let f = gen_func rng in
      (f, gen_nonparam_perm ~nparams:f.nparams rng))
    (fun (f, perm) ->
      let g = rewrite ~callee:(fun n -> n ^ "_renamed") perm f in
      Detect.fingerprint_norm f = Detect.fingerprint_norm g
      && Detect.ISet.equal (Detect.shingles ~k:4 ~w:4 f) (Detect.shingles ~k:4 ~w:4 g))

(* Function reordering and dead-function padding of a target program do
   not change what a query retrieves for the original functions: the hits
   on the original names carry identical scores in both indexes. *)
let prop_reorder_pad_invariant =
  Q.check_prop ~name:"reorder/pad invariance" ~seed:1102 ~count:100
    (fun rng ->
      let fs =
        List.init 3 (fun i -> { (gen_func rng) with fname = Printf.sprintf "f%d" i })
      in
      let pad =
        List.init
          (Q.int_range 1 3 rng)
          (fun i -> { (gen_func rng) with fname = Printf.sprintf "dead%d" i })
      in
      let probe = rewrite (gen_nonparam_perm ~nparams:(List.hd fs).nparams rng) (List.hd fs) in
      (fs, pad, probe))
    (fun (fs, pad, probe) ->
      let prog name funcs =
        let h = Hashtbl.create 8 in
        List.iter (fun f -> Hashtbl.replace h f.fname f) funcs;
        { pname = name; entry = "f0"; funcs = h; ftable = [||]; data = [] }
      in
      let ix_a = Detect.index_create Detect.default_params in
      Detect.index_add ix_a ~label:"t" (prog "a" fs);
      let ix_b = Detect.index_create Detect.default_params in
      Detect.index_add ix_b ~label:"t" (prog "b" (pad @ List.rev fs));
      let orig = List.map (fun f -> f.fname) fs in
      let on_orig hits =
        List.filter (fun (h : Detect.hit) -> List.mem h.h_func orig) hits
      in
      on_orig (Detect.query ix_a probe) = on_orig (Detect.query ix_b probe))

(* Any single opcode-level mutation changes the fingerprint.  (The issue
   asks for "high probability"; with concrete operands in the token
   stream the change is in fact certain, so the property is exact.) *)
let prop_mutation_changes =
  Q.check_prop ~name:"mutation sensitivity" ~seed:1103
    (fun rng ->
      let f = gen_func rng in
      (f, Q.int_range 0 (Array.length f.code - 1) rng))
    (fun (f, i) ->
      let code = Array.copy f.code in
      code.(i) <- mutate code.(i);
      Detect.fingerprint_norm f <> Detect.fingerprint_norm { f with code })

(* -- unit: the decoy split ----------------------------------------------- *)

let registry_scan () =
  let src = Source.registry () in
  let probes, targets = Scan.of_source src in
  let n_decoys = 3 in
  let targets = targets @ Scan.decoy_targets ~seed:7 ~count:n_decoys in
  Scan.run ~probes ~targets ~n_decoys ()

(* Seed 7's decoys 0 and 1 are a patched and a mutated copy of a
   generated decoder: the winnowed index retrieves both for gen:60:42's
   probes, and the exact-clone filter confirms neither. *)
let test_containment () =
  let decoy_hits =
    List.filter
      (fun (_, _, (h : Detect.hit)) -> h.h_label.[0] = 'd')
      (Test_clone.scan_hits ())
  in
  List.iter
    (fun index ->
      let dlabel, _ = Corpus.decoy ~seed:7 ~index in
      Alcotest.(check bool) (dlabel ^ " retrieved") true
        (List.exists (fun (_, _, (h : Detect.hit)) -> h.h_label = dlabel) decoy_hits))
    [ 0; 1 ];
  List.iter
    (fun ((pr : Scan.probe), t, (h : Detect.hit)) ->
      let confirmed =
        Detect.confirm Detect.default_params ~s:pr.pr_s ~s_label:pr.pr_label ~t
          ~t_label:h.h_label ~vuln_func:pr.pr_vuln
          ~s_crash:(Detect.s_crash pr.pr_s ~poc:pr.pr_poc)
          h
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s->%s/%s not confirmed" pr.pr_label h.h_label h.h_func)
        true (confirmed = None))
    decoy_hits

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
  Alcotest.(check int) "retrieved" 129 r.Scan.n_retrieved;
  Alcotest.(check int) "confirmed" 35 (List.length r.Scan.candidates);
  Alcotest.(check int) "rejected" 94 r.Scan.n_rejected;
  Alcotest.(check (float 1e-9)) "precision" 1.0 (Scan.precision r);
  Alcotest.(check (float 1e-9)) "recall" 1.0 (Scan.recall r);
  (* The decoys were indexed (they appear in the rejected count) but
     confirmed nothing. *)
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
   decoder only in allocation immediates (full k-gram containment
   0.917), so only an exact-clone test keeps every decoy out.  The
   retrieval counts pin that the index still surfaces them. *)
let test_many_decoys () =
  let probes, targets = Scan.of_source (Source.generated ~seed:42 ~count:100 ()) in
  List.iter
    (fun (seed, n_decoys, retrieved) ->
      let what = Printf.sprintf "%d decoys, seed %d" n_decoys seed in
      let targets = targets @ Scan.decoy_targets ~seed ~count:n_decoys in
      let r = Scan.run ~probes ~targets ~n_decoys () in
      Alcotest.(check int) (what ^ ": retrieved") retrieved r.n_retrieved;
      Alcotest.(check (float 1e-9)) (what ^ ": precision") 1.0 (Scan.precision r);
      Alcotest.(check (float 1e-9)) (what ^ ": recall") 1.0 (Scan.recall r);
      check_no_decoy r)
    [ (7, 200, 16188); (42, 20, 8608) ]

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
  Alcotest.(check string) "as a fresh process" "98d8b88683eebfee36b4362d0813499b"
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
    Alcotest.test_case "prop: rename invariance" `Quick prop_rename_invariant;
    Alcotest.test_case "prop: reorder/pad invariance" `Quick prop_reorder_pad_invariant;
    Alcotest.test_case "prop: mutation sensitivity" `Quick prop_mutation_changes;
    Alcotest.test_case "containment and decoy rejection" `Quick test_containment;
    Alcotest.test_case "registry scan: precision/recall" `Quick test_registry_scan;
    Alcotest.test_case "scan: many decoys, precision and recall 1.0" `Quick test_many_decoys;
    Alcotest.test_case "registry scan: golden report" `Quick test_scan_golden;
    Alcotest.test_case "registry scan: deterministic" `Quick test_scan_deterministic;
    Alcotest.test_case "scan: pass over the profile cap" `Quick test_scan_over_profile_cap;
    Alcotest.test_case "directory source: lenient skips" `Quick test_directory_lenient;
    Alcotest.test_case "directory source: strict raises" `Quick test_directory_strict;
    Alcotest.test_case "differential: gen:200:42 rediscovery" `Slow test_differential_gen200;
  ]
