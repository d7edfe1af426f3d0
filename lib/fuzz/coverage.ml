(** AFL-style edge coverage over MiniVM executions.

    Control-flow edges reported by the interpreter's edge hook are hashed
    into a 64 KiB bucket map with the classic [prev xor cur] scheme.  A
    global "virgin map" accumulates everything ever seen, so the fuzzers can
    ask whether an execution discovered new behaviour, and a per-run path
    hash identifies the execution path for AFLFast's frequency schedule. *)

open Octo_vm

let map_size = 1 lsl 16

type t = {
  virgin : Bytes.t;               (** buckets ever hit across the campaign *)
  mutable paths_seen : int;
}

let create () = { virgin = Bytes.make map_size '\000'; paths_seen = 0 }

let bucket_of ~fname ~from_pc ~to_pc =
  let h = Hashtbl.hash (fname, from_pc) in
  let h2 = Hashtbl.hash (fname, to_pc) in
  (h lxor (h2 lsr 1)) land (map_size - 1)

type run_info = {
  result : Interp.result;
  new_buckets : int;      (** buckets not previously in the virgin map *)
  path_hash : int;        (** order-insensitive hash of the hit buckets *)
  instructions : int;
}

(** [run t prog ~input] executes [prog] under coverage instrumentation,
    updating the virgin map.

    [compiled] lets campaign loops (thousands of executions of one program)
    compile it once; it MUST be the compilation of [prog]
    ({!Compile.compile}). *)
let run ?(max_steps = 60_000) ?compiled (t : t) (prog : Isa.program) ~(input : string) :
    run_info =
  let hit = Hashtbl.create 256 in
  let hooks =
    {
      Interp.no_hooks with
      on_edge =
        (fun fname from_pc to_pc ->
          let b = bucket_of ~fname ~from_pc ~to_pc in
          Hashtbl.replace hit b ());
    }
  in
  let compiled = match compiled with Some c -> c | None -> Compile.compile prog in
  let result = Compile.run ~hooks ~max_steps compiled ~input in
  let new_buckets = ref 0 in
  let path_hash = ref 0 in
  Hashtbl.iter
    (fun b () ->
      path_hash := !path_hash lxor Hashtbl.hash (b * 2654435761);
      if Bytes.get t.virgin b = '\000' then begin
        Bytes.set t.virgin b '\001';
        incr new_buckets
      end)
    hit;
  if !new_buckets > 0 then t.paths_seen <- t.paths_seen + 1;
  { result; new_buckets = !new_buckets; path_hash = !path_hash; instructions = result.steps }

(** [covered t] counts virgin-map buckets hit so far. *)
let covered t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.virgin;
  !n
