(* Tests for VUDDY-style clone detection. *)

open Octo_vm.Isa
open Octo_vm.Asm
module Clone = Octo_clone.Clone
module Detect = Octo_clone.Detect
module Registry = Octo_targets.Registry
module Shared = Octo_targets.Shared
module Scan = Octo_targets.Scan
module Source = Octo_targets.Source
module Q = Qcheck_lite

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let body_a = [ I (Mov (1, Imm 1)); I (Bin (Add, 1, Reg 1, Imm 2)); I (Ret (Reg 1)) ]
let body_b = [ I (Mov (1, Imm 1)); I (Bin (Add, 1, Reg 1, Imm 3)); I (Ret (Reg 1)) ]

let p1 =
  assemble ~name:"p1" ~entry:"main"
    [ fn "main" ~params:0 [ I Halt ]; fn "helper" ~params:0 body_a ]

let p2 =
  assemble ~name:"p2" ~entry:"main"
    [ fn "main" ~params:0 [ I (Sys (Exit (Imm 0))) ]; fn "helper" ~params:0 body_a ]

let p3 =
  assemble ~name:"p3" ~entry:"main"
    [ fn "main" ~params:0 [ I Halt ]; fn "helper" ~params:0 body_b ]

let p_renamed =
  assemble ~name:"p4" ~entry:"main"
    [ fn "main" ~params:0 [ I Halt ]; fn "assist" ~params:0 body_a ]

let fingerprint_equal_for_identical () =
  let fa = Clone.fingerprint (func_exn p1 "helper") in
  let fb = Clone.fingerprint (func_exn p2 "helper") in
  check Alcotest.string "identical bodies" fa fb

let fingerprint_differs_for_changed () =
  let fa = Clone.fingerprint (func_exn p1 "helper") in
  let fb = Clone.fingerprint (func_exn p3 "helper") in
  check Alcotest.bool "immediate change detected" true (fa <> fb)

let fingerprint_sensitive_to_params () =
  let f = func_exn p1 "helper" in
  let g = { f with nparams = 2 } in
  check Alcotest.bool "arity matters" true (Clone.fingerprint f <> Clone.fingerprint g)

let shared_same_name () =
  let pairs = Clone.shared_functions p1 p2 in
  check Alcotest.bool "helper found" true
    (List.exists (fun (p : Clone.clone_pair) -> p.t_func = "helper" && not p.renamed) pairs)

let shared_excludes_changed () =
  let pairs = Clone.shared_functions p1 p3 in
  check Alcotest.bool "changed helper not a clone" false
    (List.exists (fun (p : Clone.clone_pair) -> p.s_func = "helper") pairs)

let shared_detects_renamed () =
  let pairs = Clone.shared_functions p1 p_renamed in
  match List.find_opt (fun (p : Clone.clone_pair) -> p.s_func = "helper") pairs with
  | Some p ->
      check Alcotest.string "renamed target" "assist" p.t_func;
      check Alcotest.bool "flagged" true p.renamed
  | None -> Alcotest.fail "renamed clone missed"

let abstract_calls_level () =
  (* Same shape, different callee name: only the abstract level matches. *)
  let mk callee =
    assemble ~name:"w" ~entry:"main"
      [
        fn "main" ~params:0 [ I (Call (callee, [], None)); I Halt ];
        fn "x" ~params:0 [ I (Ret (Imm 0)) ];
        fn "y" ~params:0 [ I (Ret (Imm 0)) ];
      ]
  in
  let a = func_exn (mk "x") "main" and b = func_exn (mk "y") "main" in
  check Alcotest.bool "exact differs" true (Clone.fingerprint a <> Clone.fingerprint b);
  check Alcotest.string "abstract matches"
    (Clone.fingerprint ~level:Clone.Abstract_calls a)
    (Clone.fingerprint ~level:Clone.Abstract_calls b)

let vulnerable_clone_present () =
  let c = Registry.find 1 in
  check Alcotest.bool "present" true
    (Clone.is_vulnerable_clone_present c.s c.t ~vuln_func:c.vuln_func);
  check Alcotest.bool "absent for unknown" false
    (Clone.is_vulnerable_clone_present c.s c.t ~vuln_func:"does_not_exist")

let all_pairs_share_vuln_func () =
  List.iter
    (fun (c : Registry.case) ->
      let ell = Clone.ell_names (Clone.shared_functions c.s c.t) in
      check Alcotest.bool
        (Printf.sprintf "pair %d shares %s" c.idx c.vuln_func)
        true (List.mem c.vuln_func ell))
    Registry.all

let shared_decoders_distinct () =
  (* The shared decoder family must not collide pairwise, or clone
     detection would conflate different vulnerabilities. *)
  let fps =
    List.map
      (fun (f : src_func) ->
        let p = assemble ~name:"tmp" ~entry:f.name [ f ] in
        Clone.fingerprint (func_exn p f.name))
      Shared.all
  in
  check Alcotest.int "all distinct" (List.length fps)
    (List.length (List.sort_uniq compare fps))

(* -- differential: profile-based ℓ against a per-pair computation ------- *)

(* The fingerprint as clone detection first computed it, by rendering
   every instruction through [Fmt]: at [Abstract_calls] a direct call
   keeps only its arity and whether it has a destination.  It is the
   encoding oracle: {!Clone.fingerprint} must put functions into exactly
   the classes this rendering does. *)
let reference_fingerprint ?(level = Clone.Exact) (f : func) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int f.nparams);
  Array.iter
    (fun ins ->
      match ins with
      | Call (_, args, dst) when level = Clone.Abstract_calls ->
          Buffer.add_string buf
            (Printf.sprintf "call<%d,%s>" (List.length args)
               (match dst with Some _ -> "r" | None -> "-"))
      | _ -> Buffer.add_string buf (Fmt.str "%a;" pp_instr ins))
    f.code;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ℓ from scratch for one pair, as clone detection computed it before
   programs were profiled and before the structural fingerprint: render
   every function of T into an fp -> names table, then look up every
   function of S. *)
let reference_shared ?level (s : program) (t : program) : Clone.clone_pair list =
  let t_by_fp = Hashtbl.create 64 in
  Hashtbl.iter (fun name f -> Hashtbl.add t_by_fp (reference_fingerprint ?level f) name) t.funcs;
  let pairs = ref [] in
  Hashtbl.iter
    (fun s_name f ->
      match Hashtbl.find_all t_by_fp (reference_fingerprint ?level f) with
      | [] -> ()
      | candidates ->
          let t_name = if List.mem s_name candidates then s_name else List.hd candidates in
          pairs := { Clone.s_func = s_name; t_func = t_name; renamed = t_name <> s_name } :: !pairs)
    s.funcs;
  List.sort compare !pairs

let ell_t =
  Alcotest.testable
    (fun ppf l ->
      List.iter (fun (p : Clone.clone_pair) -> Format.fprintf ppf "%s->%s " p.s_func p.t_func) l)
    ( = )

let levels = [ Clone.Exact; Clone.Abstract_calls ]

(* Both entry points, at both levels, equal the reference. *)
let check_ell what s t =
  List.iter
    (fun level ->
      let want = reference_shared ~level s t in
      check ell_t what want (Clone.shared_functions ~level s t);
      check ell_t what want (Clone.shared_functions_cached ~level s t))
    levels

let source_pairs src =
  let rec go acc =
    match Source.next src with
    | None -> List.rev acc
    | Some p -> go ((p.Source.plabel, p.Source.ps, p.Source.pt) :: acc)
  in
  go []

let diagonal_ell_matches src () =
  List.iter (fun (label, s, t) -> check_ell ("pair " ^ label) s t) (source_pairs src)

(* Every retrieval hit of the gen:60:42 scan with three seed-7 decoys, as
   (probe, target program, hit). *)
let scan_hits () =
  let probes, targets = Scan.of_source (Source.generated ~seed:42 ~count:60 ()) in
  let targets = targets @ Scan.decoy_targets ~seed:7 ~count:3 in
  let ix = Detect.index_create Detect.default_params in
  let tprog = Hashtbl.create 64 in
  List.iter
    (fun (tg : Scan.target) ->
      Detect.index_add ix ~label:tg.tg_label tg.tg_prog;
      Hashtbl.replace tprog tg.tg_label tg.tg_prog)
    targets;
  List.concat_map
    (fun (pr : Scan.probe) ->
      List.map
        (fun (h : Detect.hit) -> (pr, Hashtbl.find tprog h.h_label, h))
        (Detect.query ix (func_exn pr.pr_s pr.pr_vuln)))
    probes

(* ℓ of every (probe, target) pair of that scan, a superset of its 628
   hits: pairs whose ℓ lacks the vulnerable function exercise the join
   too. *)
let scan_hit_ell_matches () =
  check Alcotest.int "hits" 628 (List.length (scan_hits ()));
  let probes, targets = Scan.of_source (Source.generated ~seed:42 ~count:60 ()) in
  let targets = targets @ Scan.decoy_targets ~seed:7 ~count:3 in
  List.iter
    (fun (pr : Scan.probe) ->
      List.iter
        (fun (tg : Scan.target) ->
          check_ell (pr.pr_label ^ "->" ^ tg.tg_label) pr.pr_s tg.tg_prog)
        targets)
    probes

(* -- encoding oracle: the same classes as the Fmt rendering ------------- *)

(* Each fingerprint of [funcs] determines its reference fingerprint and
   vice versa, at both levels: the two encodings partition [funcs] into
   the same classes. *)
let check_same_partition what funcs =
  List.iter
    (fun level ->
      let fwd = Hashtbl.create 1024 and bwd = Hashtbl.create 1024 in
      let agrees tbl k v =
        match Hashtbl.find_opt tbl k with
        | None -> Hashtbl.add tbl k v; true
        | Some v' -> v = v'
      in
      List.iter
        (fun f ->
          let fp = Clone.fingerprint ~level f and ref_fp = reference_fingerprint ~level f in
          if not (agrees fwd fp ref_fp && agrees bwd ref_fp fp) then
            Alcotest.failf "%s: %s splits or merges a reference class" what f.fname)
        funcs)
    levels

let funcs_of programs =
  List.concat_map (fun p -> Hashtbl.fold (fun _ f acc -> f :: acc) p.funcs []) programs

let source_partition_matches src () =
  check_same_partition "source"
    (funcs_of (List.concat_map (fun (_, s, t) -> [ s; t ]) (source_pairs src)))

let decoy_partition_matches () =
  let decoys = Scan.decoy_targets ~seed:7 ~count:20 in
  check_same_partition "decoys" (funcs_of (List.map (fun (tg : Scan.target) -> tg.tg_prog) decoys))

(* Random functions rich in calls: direct calls with varied callees,
   arguments and destinations, indirect calls, and a little plain code
   around them. *)
let gen_reg = Q.int_range 0 7

let gen_operand : operand Q.gen =
  Q.oneof
    [|
      Q.map (fun r -> Reg r) gen_reg;
      Q.map (fun i -> Imm i) (Q.int_range 0 9);
      Q.map (fun i -> Sym ("d" ^ string_of_int i)) (Q.int_range 0 2);
    |]

let gen_call : instr Q.gen =
 fun rng ->
  Call
    ( "h" ^ string_of_int (Q.int_range 0 3 rng),
      Q.list_of (Q.int_range 0 3) gen_operand rng,
      if Q.bool rng then Some (gen_reg rng) else None )

let gen_func : func Q.gen =
 fun rng ->
  let len = Q.int_range 1 12 rng in
  let instr =
    Q.frequency
      [
        (4, gen_call);
        ( 1,
          fun rng ->
            Icall (gen_operand rng, Q.list_of (Q.int_range 0 2) gen_operand rng, None) );
        (1, fun rng -> Mov (gen_reg rng, gen_operand rng));
        (1, fun rng -> Jif (Lt, gen_operand rng, gen_operand rng, Q.int_range 0 (len - 1) rng));
        (1, fun rng -> Ret (gen_operand rng));
      ]
  in
  { fname = "f"; nparams = Q.int_range 0 2 rng; code = Array.init len (fun _ -> instr rng) }

(* [f] with some direct calls rewritten in callee, arguments or
   destination, so [f] and the result may or may not share a class at
   either level. *)
let vary_call rng (ins : instr) : instr =
  match ins with
  | Call (g, args, dst) when Q.bool rng ->
      let callee = if Q.bool rng then g else "h" ^ string_of_int (Q.int_range 0 3 rng) in
      let args =
        match Q.int_range 0 2 rng with
        | 0 -> args
        | 1 -> List.map (fun _ -> gen_operand rng) args
        | _ -> Q.list_of (Q.int_range 0 3) gen_operand rng
      in
      let dst =
        match Q.int_range 0 2 rng with 0 -> dst | 1 -> None | _ -> Some (gen_reg rng)
      in
      Call (callee, args, dst)
  | ins -> ins

let prop_classes_match_reference =
  Q.check_prop ~name:"fingerprints equal iff reference fingerprints equal" ~seed:2001 ~count:500
    (fun rng ->
      let f = gen_func rng in
      (f, { f with code = Array.map (vary_call rng) f.code }))
    (fun (f, g) ->
      List.for_all
        (fun level ->
          Clone.fingerprint ~level f = Clone.fingerprint ~level g
          = (reference_fingerprint ~level f = reference_fingerprint ~level g))
        levels)

(* The same code with its instructions physically shared (both halves of
   the array are the same values) and unshared (the second half a deep
   copy) fingerprints alike: the encoding sees values, not sharing. *)
let prop_sharing_invisible =
  Q.check_prop ~name:"physical sharing does not change the fingerprint" ~seed:2002
    (fun rng -> gen_func rng)
    (fun f ->
      let deep_copy x = Marshal.from_string (Marshal.to_string x [ Marshal.No_sharing ]) 0 in
      let shared = { f with code = Array.append f.code f.code } in
      let unshared = { f with code = Array.append f.code (deep_copy f.code) } in
      List.for_all
        (fun level -> Clone.fingerprint ~level shared = Clone.fingerprint ~level unshared)
        levels)

(* The table is keyed by content: a program edited in place after its
   profile was taken hashes to a new key and is profiled afresh. *)
let mutated_program_reprofiled () =
  let p =
    assemble ~name:"pm" ~entry:"main"
      [ fn "main" ~params:0 [ I Halt ]; fn "helper" ~params:0 body_a ]
  in
  let shares_helper () =
    List.exists
      (fun (cp : Clone.clone_pair) -> cp.s_func = "helper")
      (Clone.shared_functions_cached p p2)
  in
  check Alcotest.bool "helper shared before the edit" true (shares_helper ());
  Hashtbl.replace p.funcs "helper" (func_exn p3 "helper");
  check Alcotest.bool "helper not shared after the edit" false (shares_helper ());
  check_ell "edited program" p p2

(* Several T functions share S's fingerprint under other names: the
   match is the reference's first candidate, not any of them. *)
let ambiguous_renamed_clone () =
  let t =
    assemble ~name:"pt" ~entry:"main"
      [
        fn "main" ~params:0 [ I Halt ];
        fn "assist" ~params:0 body_a;
        fn "aid" ~params:0 body_a;
        fn "relief" ~params:0 body_a;
      ]
  in
  check_ell "three renamed copies" p1 t;
  check_ell "reverse direction" t p1

(* [Cache_hits] counts one ℓ served wholly from the table, not one hit
   per profile.  Programs are fresh (unique names), so their first lookup
   misses; the second call may follow a table reset, so it is not
   counted on. *)
let cache_hits_per_ell () =
  let module Metrics = Octo_util.Metrics in
  let prog name =
    assemble ~name ~entry:"main" [ fn "main" ~params:0 [ I Halt ]; fn "helper" ~params:0 body_a ]
  in
  let a = prog "hits-a" and b = prog "hits-b" and c = prog "hits-c" and d = prog "hits-d" in
  let hits s t =
    Metrics.enable ();
    Fun.protect ~finally:Metrics.disable (fun () ->
        let (), m = Metrics.scoped (fun () -> ignore (Clone.shared_functions_cached s t)) in
        Metrics.counter_value (Option.get m) Metrics.Cache_hits)
  in
  check Alcotest.int "fresh pair" 0 (hits a b);
  ignore (hits a b);
  check Alcotest.int "pair served from the table" 1 (hits a b);
  check Alcotest.int "one profile cached" 0 (hits a d);
  check Alcotest.int "S = T, fresh" 0 (hits c c)

let suite =
  [
    tc "fingerprint: identical bodies match" fingerprint_equal_for_identical;
    tc "fingerprint: changed immediate differs" fingerprint_differs_for_changed;
    tc "fingerprint: arity sensitive" fingerprint_sensitive_to_params;
    tc "shared: same-name clone" shared_same_name;
    tc "shared: changed body excluded" shared_excludes_changed;
    tc "shared: renamed clone detected" shared_detects_renamed;
    tc "abstract-calls level" abstract_calls_level;
    tc "vulnerable clone query" vulnerable_clone_present;
    tc "all 15 pairs share the vulnerable function" all_pairs_share_vuln_func;
    tc "shared decoders pairwise distinct" shared_decoders_distinct;
    tc "profile ℓ = reference: registry diagonals" (diagonal_ell_matches (Source.registry ()));
    tc "profile ℓ = reference: gen:1000:42 diagonals"
      (diagonal_ell_matches (Source.generated ~seed:42 ~count:1000 ()));
    tc "profile ℓ = reference: gen:300:7919 diagonals"
      (diagonal_ell_matches (Source.generated ~seed:7919 ~count:300 ()));
    tc "profile ℓ = reference: gen:60:42 scan hits" scan_hit_ell_matches;
    tc "profile: in-place edit gets a fresh ℓ" mutated_program_reprofiled;
    tc "profile ℓ = reference: ambiguous renamed clone" ambiguous_renamed_clone;
    tc "profile: one cache hit per ℓ" cache_hits_per_ell;
    tc "fingerprint classes = reference: registry" (source_partition_matches (Source.registry ()));
    tc "fingerprint classes = reference: gen:1000:42"
      (source_partition_matches (Source.generated ~seed:42 ~count:1000 ()));
    tc "fingerprint classes = reference: gen:300:7919"
      (source_partition_matches (Source.generated ~seed:7919 ~count:300 ()));
    tc "fingerprint classes = reference: 20 decoys" decoy_partition_matches;
    tc "fingerprint classes = reference: random calls" prop_classes_match_reference;
    tc "fingerprint: physical sharing invisible" prop_sharing_invisible;
  ]
