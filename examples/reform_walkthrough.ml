(* PoC reforming walkthrough: the paper's motivating MuPDF scenario
   (§II-C), phase by phase.

   A malicious raw JPEG2000 codestream crashes opj_dump.  MuPDF embeds the
   same tile decoder but only accepts PDF files, so the original PoC does
   nothing to it.  This example runs each OCTOPOCS phase separately and
   prints the intermediate artifacts: the extracted bunches (P1), the
   directed-symbolic-execution statistics (P2), the solved constraints as a
   new PDF-shaped PoC (P3), and the replayed crash (P4).

   Run with: dune exec examples/reform_walkthrough.exe *)

open Octo_vm
module Registry = Octo_targets.Registry
module Clone = Octo_clone.Clone
module Taint = Octo_taint.Taint
module Cfg = Octo_cfg.Cfg
module B = Octo_util.Bytes_util

let section fmt = Format.printf ("@.== " ^^ fmt ^^ " ==@.")

let () =
  let c = Registry.find 8 in
  (* S = opj_dump (raw codestream), T = mupdf (PDF). *)
  section "Inputs";
  Format.printf "S = %s, T = %s@." c.s.pname c.t.pname;
  Format.printf "PoC for S (%d bytes):@.%s" (String.length c.poc) (B.hexdump c.poc);

  section "Preprocessing: ℓ and ep";
  let pairs = Clone.shared_functions c.s c.t in
  let ell = Clone.ell_names pairs in
  Format.printf "clone detection: ℓ = [%s]@." (String.concat "; " ell);
  let s_run = Interp.run c.s ~input:c.poc in
  (match s_run.outcome with
  | Interp.Crashed crash ->
      Format.printf "S crashes: %a@." Interp.pp_outcome s_run.outcome;
      Format.printf "backtrace: %s@." (String.concat " > " crash.backtrace)
  | Interp.Exited _ -> failwith "expected crash");
  let ep = c.vuln_func in
  Format.printf "ep (bottom-most ℓ function in the backtrace) = %s@." ep;

  section "P1: context-aware taint analysis";
  let taint = Taint.extract c.s ~poc:c.poc ~ep in
  Format.printf "ep entered %d time(s); %d tainted objects at peak@." taint.ep_entries
    taint.tainted_peak;
  List.iter (fun b -> Format.printf "  %a@." Taint.pp_bunch b) taint.bunches;

  section "P2: the original PoC does nothing to T";
  let t_orig = Interp.run c.t ~input:c.poc in
  Format.printf "T on original poc: %a (no crash: wrong container format)@."
    Interp.pp_outcome t_orig.outcome;

  section "P2+P3: directed symbolic execution and combining";
  let report = Octopocs.run ~s:c.s ~t:c.t ~poc:c.poc () in
  (match report.symex with
  | Some st ->
      Format.printf
        "runs: %d, loop retries: %d; executed %d symbolic steps, %d branch decisions@."
        st.runs st.loop_retries st.total_steps st.branches_decided
  | None -> ());

  section "P4: verification";
  (match report.verdict with
  | Octopocs.Triggered { poc'; ptype } ->
      Format.printf "reformed poc' (%d bytes, %s):@.%s"
        (String.length poc')
        (match ptype with Octopocs.Type_I -> "Type-I" | Octopocs.Type_II -> "Type-II")
        (B.hexdump poc');
      let t_run = Interp.run c.t ~input:poc' in
      Format.printf "T on poc': %a@." Interp.pp_outcome t_run.outcome;
      Format.printf
        "note the header: the raw 'OJ2K' codestream was re-wrapped as a '%%MPD' stream object.@."
  | v -> Format.printf "unexpected verdict: %a@." Octopocs.pp_verdict v);

  section "Contrast: the patched sibling is not triggerable";
  let c13 = Registry.find 13 in
  let r13 = Octopocs.run ~s:c13.s ~t:c13.t ~poc:c13.poc () in
  Format.printf "%s -> %s (patched): %a@." c13.s.pname c13.t.pname Octopocs.pp_verdict
    r13.verdict
