(** Streaming pair sources: where verification batches come from.

    A source is a pull cursor over (S, T, PoC) pairs.  Consumers (the CLI
    driver, the chaos harness) never materialise the whole corpus — they
    pull one pair at a time, so a million-pair corpus verifies in bounded
    memory.  Three constructors cover the use cases:

    - {!registry}: the 15 curated Table II pairs (the paper's dataset);
    - {!generated}: the seeded {!Corpus} generator, pairs regenerated
      on demand from [(seed, index)];
    - {!directory}: an on-disk corpus of tiny [*.pair] manifests, each
      naming the coordinates of one pair (so a corpus directory is a few
      KB no matter how many pairs it describes, and survives replication
      to other machines byte-for-byte).

    {!of_spec} parses the CLI's [--corpus] argument into a source. *)

module Log = Octo_util.Log

type pair = {
  plabel : string;  (** journal/display label; unique within a source *)
  ps : Octo_vm.Isa.program;
  pt : Octo_vm.Isa.program;
  ppoc : string;
  pell : string list option;  (** explicit shared functions, if curated *)
  pexpected : string option;  (** expected verdict class, if known *)
  pvuln : string option;
      (** the known-vulnerable function of S (the scan's probe
          annotation; {!Registry.case.vuln_func} for curated pairs, the
          family decoder for generated ones) *)
}

exception Malformed_manifest of string
(** Raised by strict directory sources on an unparsable [.pair] manifest
    (the argument is the offending path). *)

type t = { src_id : string; src_size : int option; pull : unit -> pair option }

let id t = t.src_id

(** [size t] is how many pairs [t] holds in all, when known up front:
    15 for the registry, COUNT for [gen:COUNT], and for a directory its
    [.pair] manifests when it was opened (malformed ones included). *)
let size t = t.src_size

(** [next t] pulls the next pair, or [None] when the source is drained.
    Sources are single-shot cursors: once drained they stay drained. *)
let next t = t.pull ()

let registry () =
  let remaining = ref Registry.all in
  {
    src_id = "registry";
    src_size = Some (List.length Registry.all);
    pull =
      (fun () ->
        match !remaining with
        | [] -> None
        | c :: rest ->
            remaining := rest;
            Some
              {
                plabel = string_of_int c.Registry.idx;
                ps = c.Registry.s;
                pt = c.Registry.t;
                ppoc = c.Registry.poc;
                pell = None;
                pexpected = Some (Registry.expected_to_string c.Registry.expected);
                pvuln = Some c.Registry.vuln_func;
              });
  }

let pair_of_gen (g : Corpus.gen_pair) =
  {
    plabel = g.Corpus.glabel;
    ps = g.Corpus.gs;
    pt = g.Corpus.gt;
    ppoc = g.Corpus.gpoc;
    pell = None;
    pexpected = Some g.Corpus.gexpected;
    pvuln = Some (Corpus.vuln_name g.Corpus.gfamily);
  }

let generated ~seed ~count () =
  let i = ref 0 in
  {
    src_id = Printf.sprintf "gen:%d:%d" count seed;
    src_size = Some count;
    pull =
      (fun () ->
        if !i >= count then None
        else begin
          let g = Corpus.generate ~seed ~index:!i in
          incr i;
          Some (pair_of_gen g)
        end);
  }

(* On-disk corpus manifests.  One pair per file, named so a sorted
   directory listing is the corpus order:

     octopair1
     seed=42
     index=17        -- a generated pair, or:
     registry=9      -- a curated Table II pair by index
*)

let manifest_ext = ".pair"

let parse_manifest path =
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let kv = Hashtbl.create 4 in
  let ok = ref false in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if i = 0 && line = "octopair1" then ok := true
      else if line <> "" then
        match String.index_opt line '=' with
        | Some j ->
            Hashtbl.replace kv
              (String.sub line 0 j)
              (String.sub line (j + 1) (String.length line - j - 1))
        | None -> ())
    (List.rev !lines);
  if not !ok then None
  else
    let geti k = Option.bind (Hashtbl.find_opt kv k) int_of_string_opt in
    match geti "registry" with
    | Some idx ->
        Option.map
          (fun (c : Registry.case) ->
            {
              plabel = string_of_int c.Registry.idx;
              ps = c.Registry.s;
              pt = c.Registry.t;
              ppoc = c.Registry.poc;
              pell = None;
              pexpected = Some (Registry.expected_to_string c.Registry.expected);
              pvuln = Some c.Registry.vuln_func;
            })
          (Registry.find_opt idx)
    | None -> (
        match (geti "seed", geti "index") with
        | Some seed, Some index when index >= 0 ->
            Some (pair_of_gen (Corpus.generate ~seed ~index))
        | _ -> None)

(** [directory ?strict dir] streams the [.pair] manifests of [dir] in
    sorted order.  A malformed manifest is skipped with a warning by
    default; under [~strict:true] the pull raises {!Malformed_manifest}
    instead — silent skips under-count a corpus, which a batch that
    reports coverage statistics cannot afford. *)
let directory ?(strict = false) dir =
  let names =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n manifest_ext)
    |> List.sort compare
  in
  let remaining = ref names in
  let rec pull () =
    match !remaining with
    | [] -> None
    | n :: rest -> (
        remaining := rest;
        let path = Filename.concat dir n in
        match (try parse_manifest path with Sys_error _ -> None) with
        | Some p -> Some p
        | None when strict -> raise (Malformed_manifest path)
        | None ->
            Log.warn (fun m -> m "corpus: skipping malformed manifest %s" path);
            pull ())
  in
  { src_id = "dir:" ^ dir; src_size = Some (List.length names); pull }

(** [write_dir ~dir ~seed ~count] materialises a corpus {e description}
    on disk: [count] one-pair manifests pointing at the generator, so the
    directory can be shipped, subset or diffed without shipping programs. *)
let write_dir ~dir ~seed ~count =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  for i = 0 to count - 1 do
    let path = Filename.concat dir (Printf.sprintf "pair-%05d%s" i manifest_ext) in
    let oc = open_out_bin path in
    Printf.fprintf oc "octopair1\nseed=%d\nindex=%d\n" seed i;
    close_out oc
  done

(** Parse a [--corpus] spec: ["registry"], ["gen:COUNT[:SEED]"] (seed
    defaults to 42), or a path to a corpus directory ([strict] governs
    malformed-manifest handling as in {!directory}). *)
let of_spec ?strict spec =
  let invalid () =
    Error
      (Printf.sprintf
         "invalid corpus spec %S (expected \"registry\", \"gen:COUNT[:SEED]\", or a corpus \
          directory)"
         spec)
  in
  if spec = "registry" then Ok (registry ())
  else if String.length spec > 4 && String.sub spec 0 4 = "gen:" then
    match String.split_on_char ':' spec with
    | [ _; cnt ] -> (
        match int_of_string_opt cnt with
        | Some c when c >= 0 -> Ok (generated ~seed:42 ~count:c ())
        | _ -> invalid ())
    | [ _; cnt; sd ] -> (
        match (int_of_string_opt cnt, int_of_string_opt sd) with
        | Some c, Some s when c >= 0 -> Ok (generated ~seed:s ~count:c ())
        | _ -> invalid ())
    | _ -> invalid ()
  else if Sys.file_exists spec && Sys.is_directory spec then Ok (directory ?strict spec)
  else invalid ()
