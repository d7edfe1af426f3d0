(* Tests for byte-level taint analysis and crash-primitive extraction. *)

open Octo_vm.Isa
open Octo_vm.Asm
module Taint = Octo_taint.Taint
module Registry = Octo_targets.Registry

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* A tiny S: reads one byte, passes it through a register copy into the
   shared function "sink" which stores it out of bounds. *)
let tiny_s =
  assemble ~name:"tiny" ~entry:"main"
    [
      fn "main" ~params:0
        [
          I (Sys (Open 1));
          I (Sys (Alloc (2, Imm 4)));
          I (Sys (Read (3, Reg 1, Reg 2, Imm 1)));
          I (Load8 (4, Reg 2, Imm 0));
          I (Mov (5, Reg 4));  (* taint propagates through the copy *)
          I (Call ("sink", [ Reg 5 ], None));
          I Halt;
        ];
      fn "sink" ~params:1 [ I (Sys (Alloc (1, Imm 2))); I (Store8 (Reg 1, Imm 8, Reg 0)) ];
    ]

let extracts_through_copies () =
  let r = Taint.extract tiny_s ~poc:"\x41" ~ep:"sink" in
  check Alcotest.int "one entry" 1 r.ep_entries;
  match r.bunches with
  | [ b ] ->
      check Alcotest.(list (pair int int)) "offset 0 marked" [ (0, 0x41) ] b.prims;
      check Alcotest.(list (pair int bool)) "arg tainted" [ (0x41, true) ] b.ep_args
  | _ -> Alcotest.fail "expected one bunch"

let crash_recorded () =
  let r = Taint.extract tiny_s ~poc:"\x41" ~ep:"sink" in
  match r.crash with
  | Some c -> check Alcotest.string "crash in sink" "sink" c.crash_func
  | None -> Alcotest.fail "expected crash"

(* Overwriting a tainted register with a constant clears its taint, so the
   second sink call's argument is untainted. *)
let untaint_s =
  assemble ~name:"untaint" ~entry:"main"
    [
      fn "main" ~params:0
        [
          I (Sys (Open 1));
          I (Sys (Alloc (2, Imm 4)));
          I (Sys (Read (3, Reg 1, Reg 2, Imm 1)));
          I (Load8 (4, Reg 2, Imm 0));
          I (Mov (4, Imm 7));  (* kills the taint *)
          I (Call ("sink", [ Reg 4 ], None));
          I Halt;
        ];
      fn "sink" ~params:1 [ I (Sys (Alloc (1, Imm 2))); I (Store8 (Reg 1, Imm 8, Reg 0)) ];
    ]

let overwrite_clears_taint () =
  let r = Taint.extract untaint_s ~poc:"\x41" ~ep:"sink" in
  match r.bunches with
  | [ b ] ->
      check Alcotest.(list (pair int int)) "no primitives" [] b.prims;
      check Alcotest.(list (pair int bool)) "arg untainted" [ (7, false) ] b.ep_args
  | _ -> Alcotest.fail "expected one bunch"

(* Real pair: jpegc on the scan-overflow PoC. *)

let jpegc_bunch () =
  let c = Registry.find 1 in
  let r = Taint.extract c.s ~poc:c.poc ~ep:c.vuln_func in
  check Alcotest.int "single ep entry" 1 r.ep_entries;
  match r.bunches with
  | [ b ] ->
      let offs = List.map fst b.prims in
      (* len byte at 3, plus the 17 payload bytes read before the fault *)
      check Alcotest.bool "len byte marked" true (List.mem 3 offs);
      check Alcotest.bool "first payload byte marked" true (List.mem 4 offs);
      check Alcotest.bool "17th payload byte marked" true (List.mem 20 offs);
      check Alcotest.bool "unread tail not marked" false (List.mem 25 offs);
      check Alcotest.int "anchor after len" 4 b.anchor;
      (* args: (fd, len) — only len is input-derived *)
      (match b.ep_args with
      | [ (_, false); (len, true) ] -> check Alcotest.int "len value" 0x20 len
      | _ -> Alcotest.fail "unexpected arg taint pattern")
  | _ -> Alcotest.fail "expected one bunch"

let multi_entry_bunches () =
  let c = Registry.find 4 in
  (* avconv: two frames, crash on the second *)
  let r = Taint.extract c.s ~poc:c.poc ~ep:c.vuln_func in
  check Alcotest.int "two entries" 2 r.ep_entries;
  match r.bunches with
  | [ b1; b2 ] ->
      check Alcotest.int "seq 1" 1 b1.seq;
      check Alcotest.int "seq 2" 2 b2.seq;
      check Alcotest.bool "anchors increase" true (b2.anchor > b1.anchor);
      check Alcotest.bool "second bunch larger (crash payload)" true
        (List.length b2.prims > List.length b1.prims);
      check Alcotest.bool "bunches marked unmerged" true
        ((not b1.merged) && not b2.merged)
  | _ -> Alcotest.fail "expected two bunches"

let plain_mode_merges () =
  let c = Registry.find 4 in
  let aware = Taint.extract ~mode:Taint.Context_aware c.s ~poc:c.poc ~ep:c.vuln_func in
  let plain = Taint.extract ~mode:Taint.Plain c.s ~poc:c.poc ~ep:c.vuln_func in
  match (aware.bunches, plain.bunches) with
  | [ b1; b2 ], [ m ] ->
      check Alcotest.bool "merged flag" true m.merged;
      check Alcotest.int "union of offsets"
        (List.length (List.sort_uniq compare (List.map fst (b1.prims @ b2.prims))))
        (List.length m.prims);
      check Alcotest.int "anchored at first entry" b1.anchor m.anchor
  | _ -> Alcotest.fail "unexpected bunch structure"

let hang_crash_still_extracts () =
  let c = Registry.find 3 in
  (* poppler_pdftops hangs in xref_walk: extraction must terminate with the
     hang crash and both bunches. *)
  let r = Taint.extract c.s ~poc:c.poc ~ep:c.vuln_func in
  check Alcotest.int "two xref entries" 2 r.ep_entries;
  match r.crash with
  | Some { fault = Octo_vm.Mem.Hang; crash_func; _ } ->
      check Alcotest.string "hang inside walker" "xref_walk" crash_func
  | _ -> Alcotest.fail "expected hang crash"

(* Pair 3's taint replay reaches its hang budget by skipping whole proven
   cycles (the taint engine opts in through [checkpoint]).  Everything it
   extracts is pinned to what the full 400 000-step replay produced. *)
let render_taint (r : Taint.result) =
  let b = Buffer.create 256 in
  let pf fmt = Printf.bprintf b fmt in
  List.iter
    (fun (bu : Taint.bunch) ->
      pf "bunch %d anchor=%d merged=%b args=[%s] sites=[%s]\n  prims=[%s]\n" bu.seq bu.anchor
        bu.merged
        (String.concat ";"
           (List.map (fun (v, t) -> Printf.sprintf "%d%s" v (if t then "*" else "")) bu.ep_args))
        (String.concat ";" bu.sites)
        (String.concat ";" (List.map (fun (o, v) -> Printf.sprintf "%d:%d" o v) bu.prims)))
    r.bunches;
  pf "ep_entries=%d tainted_peak=%d marked_offsets=%d\n" r.ep_entries r.tainted_peak
    r.marked_offsets;
  (match r.crash with
  | None -> pf "crash=none\n"
  | Some c ->
      pf "crash=%s in %s@%d [%s]\n" (Octo_vm.Mem.fault_to_string c.fault) c.crash_func
        c.crash_pc (String.concat " > " c.backtrace));
  Buffer.contents b

let hang_pin mode expected () =
  let c = Registry.find 3 in
  check Alcotest.string "pair 3 extraction" expected
    (render_taint (Taint.extract ~mode c.s ~poc:c.poc ~ep:c.vuln_func))

let pair3_context_aware =
  "bunch 1 anchor=6 merged=false args=[3;9*] sites=[xref_walk]\n\
  \  prims=[9:0]\n\
   bunch 2 anchor=8 merged=false args=[3;10*] sites=[xref_walk]\n\
  \  prims=[10:10]\n\
   ep_entries=2 tainted_peak=10 marked_offsets=2\n\
   crash=hang (step budget exhausted) in xref_walk@5 [main > xref_walk]\n"

let pair3_plain =
  "bunch 1 anchor=6 merged=true args=[3;9*] sites=[xref_walk]\n\
  \  prims=[9:0;10:10]\n\
   ep_entries=2 tainted_peak=10 marked_offsets=2\n\
   crash=hang (step budget exhausted) in xref_walk@5 [main > xref_walk]\n"

(* A recorder that does not opt in sees the whole run. *)
let hang_recorder_sees_every_step () =
  let c = Registry.find 3 in
  let n = ref 0 in
  let hooks = { Octo_vm.Interp.no_hooks with on_step = (fun _ _ -> incr n) } in
  let r = Octo_vm.Interp.run ~hooks c.s ~input:c.poc in
  check Alcotest.int "steps" 400_000 r.steps;
  check Alcotest.int "on_step events" 400_000 !n;
  check Alcotest.bool "no cycle skipped" true (r.cycle = None)

let tif_args_tainted () =
  let c = Registry.find 10 in
  let r = Taint.extract c.s ~poc:c.poc ~ep:c.vuln_func in
  match r.bunches with
  | [ b ] -> (
      match b.ep_args with
      | [ (tag, true); (value, true) ] ->
          check Alcotest.int "vulnerable tag" 0x3d tag;
          check Alcotest.int "value byte" 0x41 value
      | _ -> Alcotest.fail "both args should be tainted")
  | _ -> Alcotest.fail "expected one bunch"

let no_ep_entry_no_bunches () =
  let p =
    assemble ~name:"noep" ~entry:"main"
      [ fn "main" ~params:0 [ I Halt ]; fn "sink" ~params:0 [ I (Ret (Imm 0)) ] ]
  in
  let r = Taint.extract p ~poc:"x" ~ep:"sink" in
  check Alcotest.int "no entries" 0 r.ep_entries;
  check Alcotest.int "no bunches" 0 (List.length r.bunches)

let taint_peak_positive () =
  let c = Registry.find 1 in
  let r = Taint.extract c.s ~poc:c.poc ~ep:c.vuln_func in
  check Alcotest.bool "objects were tracked" true (r.tainted_peak > 0);
  check Alcotest.bool "primitives counted" true (r.marked_offsets > 0)

(* Every extraction over two generated corpora, pinned by digest: a change
   to how the engine tracks objects must leave every bunch, argument flag,
   anchor, peak, marked count and crash exactly as they are. *)
module Corpus = Octo_targets.Corpus

let corpus_render seed =
  let b = Buffer.create 65_536 in
  for index = 0 to 299 do
    let e = Corpus.generate ~seed ~index in
    let ep = Corpus.vuln_name e.gfamily in
    List.iter
      (fun (mode, granularity) ->
        Buffer.add_string b e.glabel;
        Buffer.add_char b '\n';
        Buffer.add_string b
          (render_taint (Taint.extract ~mode ~granularity e.gs ~poc:e.gpoc ~ep)))
      Taint.
        [
          (Context_aware, Byte_level);
          (Context_aware, Word_level);
          (Plain, Byte_level);
          (Plain, Word_level);
        ]
  done;
  Buffer.contents b

let corpus_pin () =
  List.iter
    (fun (seed, expected) ->
      check Alcotest.string
        (Printf.sprintf "gen:300:%d extraction digest" seed)
        expected
        (Digest.to_hex (Digest.string (corpus_render seed))))
    [ (42, "1c79389aac38de70d96c5cb8a93df50e"); (7919, "6fb8e18ae070df9a06d7bcef57fe1062") ]

(* The shadow table is created once per replay; its bucket array must stay
   small enough for the minor heap, so that neither a whole pipeline pass
   nor the replay with the registry's largest table (pair 9, 35 tracked
   objects) allocates directly into the major heap.  Direct major words
   are major words minus those promoted from the minor heap. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  int_of_float (major1 -. major0 -. (promoted1 -. promoted0))

let no_direct_major_allocation () =
  let module Metrics = Octo_util.Metrics in
  let was_on = Metrics.is_on () in
  Metrics.disable ();
  Fun.protect ~finally:(fun () -> if was_on then Metrics.enable ()) @@ fun () ->
  let pairs = List.init 200 (fun index -> Corpus.generate ~seed:42 ~index) in
  check Alcotest.int "gen:200:42 pipeline runs" 0
    (direct_major_words (fun () ->
         List.iter
           (fun (e : Corpus.gen_pair) -> ignore (Octopocs.run ~s:e.gs ~t:e.gt ~poc:e.gpoc ()))
           pairs));
  let c = Registry.find 9 in
  let extract () = Taint.extract c.s ~poc:c.poc ~ep:c.vuln_func in
  check Alcotest.int "pair 9 tracks 35 objects" 35 (extract ()).tainted_peak;
  check Alcotest.int "pair 9 extraction" 0 (direct_major_words (fun () -> ignore (extract ())))

let suite =
  [
    tc "taint flows through register copies" extracts_through_copies;
    tc "crash recorded with extraction" crash_recorded;
    tc "overwrite clears taint" overwrite_clears_taint;
    tc "jpegc: bunch offsets, anchor, args" jpegc_bunch;
    tc "avconv: per-entry bunches" multi_entry_bunches;
    tc "plain mode merges bunches" plain_mode_merges;
    tc "hang crash still yields bunches" hang_crash_still_extracts;
    tc "pair 3 pin: context-aware extraction" (hang_pin Taint.Context_aware pair3_context_aware);
    tc "pair 3 pin: plain extraction" (hang_pin Taint.Plain pair3_plain);
    tc "pair 3: recorder without checkpoint sees all steps" hang_recorder_sees_every_step;
    tc "tiffsplit: both args tainted" tif_args_tainted;
    tc "ep never entered yields nothing" no_ep_entry_no_bunches;
    tc "stats populated" taint_peak_positive;
    tc "gen:300 pin: every mode and granularity" corpus_pin;
    tc "no direct major-heap allocation" no_direct_major_allocation;
  ]
