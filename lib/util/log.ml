(* Leveled structured logging.

   One process-wide severity threshold behind an [Atomic]: a disabled
   call site costs a single atomic load plus an integer compare, the
   same budget as [Metrics]/[Trace].  Call sites use the message-thunk
   shape ([Log.warn (fun m -> m "fmt" args)]) so format arguments are
   never even evaluated below the threshold.

   Output goes to a pluggable sink (stderr by default, mutex-guarded so
   concurrent domains never interleave half-lines) and, optionally, to
   an append-only JSONL file for machine consumption.  The threshold is
   seeded from the [OCTOPOCS_LOG] environment variable at startup and
   can be overridden per run with [--log-level]. *)

type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3
let level_name = function Error -> "error" | Warn -> "warn" | Info -> "info" | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" | "err" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

(* -- threshold --------------------------------------------------------- *)

let threshold = Atomic.make (severity Warn)

let set_level l = Atomic.set threshold (severity l)

let level () =
  match Atomic.get threshold with
  | 0 -> Error
  | 1 -> Warn
  | 2 -> Info
  | _ -> Debug

let enabled l = severity l <= Atomic.get threshold

let () =
  match Sys.getenv_opt "OCTOPOCS_LOG" with
  | None -> ()
  | Some s -> ( match level_of_string s with Some l -> set_level l | None -> ())

(* -- sinks ------------------------------------------------------------- *)

let lock = Mutex.create ()

let stderr_sink lvl msg = Printf.eprintf "octopocs: [%s] %s\n%!" (level_name lvl) msg

let sink : (level -> string -> unit) ref = ref stderr_sink
let set_sink f = Mutex.lock lock; sink := f; Mutex.unlock lock
let reset_sink () = set_sink stderr_sink

(* Optional machine-readable mirror: one JSON object per line, written
   regardless of which human sink is installed.  Timestamps are wall
   clock (operational logs correlate with the outside world; determinism
   lives in the journals, not here). *)
let jsonl : out_channel option ref = ref None

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let close_jsonl () =
  Mutex.lock lock;
  (match !jsonl with Some oc -> close_out_noerr oc | None -> ());
  jsonl := None;
  Mutex.unlock lock

(* A path that cannot be created raises [Sys_error] with no mirror set. *)
let set_jsonl path =
  close_jsonl ();
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Mutex.lock lock;
  jsonl := Some oc;
  Mutex.unlock lock

let output lvl msg =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      !sink lvl msg;
      match !jsonl with
      | None -> ()
      | Some oc ->
          Printf.fprintf oc "{\"ts\":%.6f,\"level\":%S,\"msg\":\"%s\"}\n"
            (Unix.gettimeofday ()) (level_name lvl) (json_escape msg);
          flush oc)

(* -- call sites -------------------------------------------------------- *)

(* The thunk receives a printf-like [m]; nothing under the threshold is
   formatted or allocated beyond the closure itself. *)
type 'a msgf = (('a, Format.formatter, unit, unit) format4 -> 'a) -> unit

let log lvl (msgf : 'a msgf) =
  if severity lvl <= Atomic.get threshold then
    msgf (fun fmt -> Format.kasprintf (fun s -> output lvl s) fmt)

let err msgf = log Error msgf
let warn msgf = log Warn msgf
let info msgf = log Info msgf
let debug msgf = log Debug msgf
