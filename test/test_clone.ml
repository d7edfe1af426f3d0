(* Tests for VUDDY-style clone detection. *)

open Octo_vm.Isa
open Octo_vm.Asm
module Clone = Octo_clone.Clone
module Detect = Octo_clone.Detect
module Registry = Octo_targets.Registry
module Shared = Octo_targets.Shared
module Scan = Octo_targets.Scan
module Source = Octo_targets.Source

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

(* ℓ from scratch for one pair, as clone detection computed it before
   programs were profiled: fingerprint every function of T into an
   fp -> names table, then look up every function of S. *)
let reference_shared ?level (s : program) (t : program) : Clone.clone_pair list =
  let t_by_fp = Hashtbl.create 64 in
  Hashtbl.iter (fun name f -> Hashtbl.add t_by_fp (Clone.fingerprint ?level f) name) t.funcs;
  let pairs = ref [] in
  Hashtbl.iter
    (fun s_name f ->
      match Hashtbl.find_all t_by_fp (Clone.fingerprint ?level f) with
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

(* Both entry points, at both levels, equal the reference. *)
let check_ell what s t =
  List.iter
    (fun level ->
      let want = reference_shared ~level s t in
      check ell_t what want (Clone.shared_functions ~level s t);
      check ell_t what want (Clone.shared_functions_cached ~level s t))
    [ Clone.Exact; Clone.Abstract_calls ]

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

let scan_hit_ell_matches () =
  let hits = scan_hits () in
  check Alcotest.int "hits" 3049 (List.length hits);
  List.iter
    (fun ((pr : Scan.probe), t, (h : Detect.hit)) ->
      check_ell (pr.pr_label ^ "->" ^ h.h_label) pr.pr_s t)
    hits

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
  ]
