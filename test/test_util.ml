(* Unit tests for Octo_util: PRNG determinism, byte helpers and the memo
   table's admission rule. *)

open Octo_util

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.bits a) (Rng.bits b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 8 (fun _ -> Rng.bits a) in
  let ys = List.init 8 (fun _ -> Rng.bits b) in
  check Alcotest.bool "different streams" true (xs <> ys)

let rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let rng_byte_range () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.byte r in
    check Alcotest.bool "byte" true (v >= 0 && v <= 255)
  done

let rng_int_rejects_nonpositive () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  check Alcotest.bool "split differs" true (Rng.bits a <> Rng.bits b)

let rng_copy_preserves () =
  let a = Rng.create 11 in
  ignore (Rng.bits a);
  let b = Rng.copy a in
  check Alcotest.int "copy continues identically" (Rng.bits a) (Rng.bits b)

let rng_choose () =
  let r = Rng.create 3 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    check Alcotest.bool "member" true (Array.mem (Rng.choose r arr) arr)
  done

let bytes_roundtrip () =
  let l = [ 0; 1; 127; 128; 255; 300 ] in
  let s = Bytes_util.of_int_list l in
  check (Alcotest.list Alcotest.int) "roundtrip masks to bytes"
    [ 0; 1; 127; 128; 255; 44 ] (Bytes_util.to_int_list s)

let u16le_layout () =
  check Alcotest.string "u16le" "\x34\x12" (Bytes_util.u16le 0x1234)

let u32le_layout () =
  check Alcotest.string "u32le" "\x78\x56\x34\x12" (Bytes_util.u32le 0x12345678)

let repeat_layout () =
  check Alcotest.string "repeat" "AAAA" (Bytes_util.repeat 4 0x41)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let hexdump_shape () =
  let d = Bytes_util.hexdump "ABCDEFGHIJKLMNOPQR" in
  check Alcotest.int "two lines" 2 (List.length (String.split_on_char '\n' (String.trim d)));
  check Alcotest.bool "ascii gutter shows text" true (contains ~needle:"ABCDEFGH" d);
  check Alcotest.bool "hex bytes shown" true (contains ~needle:"41 42 43" d)

let diff_offsets_basic () =
  check (Alcotest.list Alcotest.int) "single diff" [ 1 ] (Bytes_util.diff_offsets "abc" "aXc");
  check (Alcotest.list Alcotest.int) "equal" [] (Bytes_util.diff_offsets "abc" "abc");
  check (Alcotest.list Alcotest.int) "length tail" [ 3; 4 ] (Bytes_util.diff_offsets "abc" "abcde")

(* -- Metrics.percentile ------------------------------------------------- *)

module Metrics = Octo_util.Metrics

(* A snapshot with chosen taint-phase histogram buckets; every other
   phase stays empty so the None case is exercised by the same value. *)
let hist_snapshot buckets =
  let s = Metrics.zero () in
  let base = Metrics.phase_index Metrics.Taint * Metrics.nbuckets in
  List.iter (fun (i, n) -> s.Metrics.phase_hist.(base + i) <- n) buckets;
  s

let percentile_empty () =
  let s = Metrics.zero () in
  Alcotest.(check (option int)) "empty histogram" None (Metrics.percentile s Metrics.Taint 50.0)

let percentile_single_bucket () =
  (* All mass in bucket 5: every percentile answers its lower bound. *)
  let s = hist_snapshot [ (5, 10) ] in
  List.iter
    (fun pct ->
      Alcotest.(check (option int))
        (Printf.sprintf "p%.0f" pct)
        (Some 32) (Metrics.percentile s Metrics.Taint pct))
    [ 1.0; 50.0; 99.0; 100.0 ];
  Alcotest.(check (option int)) "other phase empty" None (Metrics.percentile s Metrics.Solve 50.0)

let percentile_split () =
  (* 90 spans in bucket 3, 10 in bucket 8: the p90 rank (90) still lands
     in bucket 3, anything above crosses into bucket 8. *)
  let s = hist_snapshot [ (3, 90); (8, 10) ] in
  Alcotest.(check (option int)) "p50" (Some 8) (Metrics.percentile s Metrics.Taint 50.0);
  Alcotest.(check (option int)) "p90" (Some 8) (Metrics.percentile s Metrics.Taint 90.0);
  Alcotest.(check (option int)) "p91" (Some 256) (Metrics.percentile s Metrics.Taint 91.0);
  Alcotest.(check (option int)) "p99" (Some 256) (Metrics.percentile s Metrics.Taint 99.0)

let percentile_bounds () =
  let s = hist_snapshot [ (0, 1) ] in
  Alcotest.check_raises "0 rejected" (Invalid_argument "Metrics.percentile") (fun () ->
      ignore (Metrics.percentile s Metrics.Taint 0.0));
  Alcotest.check_raises "101 rejected" (Invalid_argument "Metrics.percentile") (fun () ->
      ignore (Metrics.percentile s Metrics.Taint 101.0))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"of_int_list/to_int_list roundtrip"
      QCheck.(list (int_bound 255))
      (fun l -> Bytes_util.(to_int_list (of_int_list l)) = l);
    QCheck.Test.make ~name:"diff_offsets empty iff equal"
      QCheck.(pair (string_of_size Gen.(0 -- 20)) (string_of_size Gen.(0 -- 20)))
      (fun (a, b) -> Bytes_util.diff_offsets a b = [] = (a = b));
    QCheck.Test.make ~name:"rng int always in bound"
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, n) ->
        let r = Rng.create seed in
        let v = Rng.int r n in
        v >= 0 && v < n);
  ]

let suite =
  [
    tc "rng: determinism" rng_deterministic;
    tc "rng: seed sensitivity" rng_seed_sensitivity;
    tc "rng: int range" rng_int_range;
    tc "rng: byte range" rng_byte_range;
    tc "rng: rejects non-positive bound" rng_int_rejects_nonpositive;
    tc "rng: split independence" rng_split_independent;
    tc "rng: copy preserves state" rng_copy_preserves;
    tc "rng: choose members" rng_choose;
    tc "bytes: of_int_list masks" bytes_roundtrip;
    tc "bytes: u16le layout" u16le_layout;
    tc "bytes: u32le layout" u32le_layout;
    tc "bytes: repeat" repeat_layout;
    tc "bytes: hexdump shape" hexdump_shape;
    tc "bytes: diff_offsets" diff_offsets_basic;
    tc "percentile: empty histogram is None" percentile_empty;
    tc "percentile: single bucket answers its lower bound" percentile_single_bucket;
    tc "percentile: rank crosses buckets at the right pct" percentile_split;
    tc "percentile: pct outside (0, 100] rejected" percentile_bounds;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
