(* Structured tracing: monotonic-clock spans, phase-tagged, nested as
   the calls nest, emitted as JSONL compatible with Chrome's trace
   viewer (chrome://tracing or https://ui.perfetto.dev).

   File format: the first line is "[" and every following line is one
   complete JSON duration event ("ph":"B"/"E") terminated by a comma —
   the JSON-array framing Chrome's viewer accepts even without the
   closing "]", which lets the writer append one line per event and
   stay crash-tolerant (a torn final line is ignored by [validate_file]
   consumers only if they choose to; the writer itself never tears a
   line because each event is a single [output_string] under a lock).

   Timestamps are CLOCK_MONOTONIC microseconds ("ts", fractional), pid
   is the OS pid, tid is the OCaml domain id — so a parallel batch
   renders as one lane per pool worker.

   [with_span] is active when either the trace sink is open or metrics
   collection is on; when both are off it runs the thunk directly (one
   atomic load of overhead).  Every completed span also feeds the
   per-phase latency histogram in [Metrics].

   [enable]/[disable] must be called outside any open span (the CLI
   enables before a batch and disables after); toggling mid-span would
   emit unbalanced events. *)

type phase = Metrics.phase = Taint | Cfg | Symex | Solve | Combine | Verify

type sink = { oc : out_channel; path : string }

let lock = Mutex.create ()
let sink : sink option ref = ref None

(* Fast mirror of [!sink <> None] so [active] needs no mutex. *)
let sink_on = Atomic.make false

let enabled () = Atomic.get sink_on
let active () = Atomic.get sink_on || Metrics.is_on ()

let disable () =
  Mutex.lock lock;
  (match !sink with
  | Some s ->
      (try flush s.oc with Sys_error _ -> ());
      close_out_noerr s.oc
  | None -> ());
  sink := None;
  Atomic.set sink_on false;
  Mutex.unlock lock

(* A path that cannot be created raises [Sys_error] with tracing off. *)
let enable ~path =
  disable ();
  let oc = open_out path in
  Mutex.lock lock;
  output_string oc "[\n";
  sink := Some { oc; path };
  Atomic.set sink_on true;
  Mutex.unlock lock

let emit ~name ~cat ~ph ~ts_ns =
  Mutex.lock lock;
  (match !sink with
  | None -> ()
  | Some s ->
      let line =
        Printf.sprintf
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d},\n"
          (Log.json_escape name) (Log.json_escape cat) ph
          (Int64.to_float ts_ns /. 1e3)
          (Unix.getpid ())
          (Domain.self () :> int)
      in
      output_string s.oc line);
  Mutex.unlock lock

(* -- spans ------------------------------------------------------------- *)

(* Nesting needs no bookkeeping: a span's end event is emitted on the way
   out of its thunk, so begin/end pairs nest exactly as the calls do. *)
let span_gen ~cat ~phase ~name f =
  if not (active ()) then f ()
  else begin
    let t0 = Deadline.monotonic_ns () in
    if enabled () then emit ~name ~cat ~ph:'B' ~ts_ns:t0;
    let finish () =
      let t1 = Deadline.monotonic_ns () in
      if enabled () then emit ~name ~cat ~ph:'E' ~ts_ns:t1;
      match phase with
      | Some p -> Metrics.observe_phase p (Int64.to_int (Int64.sub t1 t0))
      | None -> ()
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A phase span: emitted under the phase's category so the trace viewer
   colours all six phases consistently, and observed into the metrics
   latency histogram for that phase. *)
let with_span phase name f =
  span_gen
    ~cat:(Metrics.phase_name phase)
    ~phase:(Some phase)
    ~name:(Metrics.phase_name phase ^ "." ^ name)
    f

(* A non-phase span (e.g. the per-pair envelope, cat "pair"): traced but
   not histogrammed. *)
let with_cat_span ~cat ~name f = span_gen ~cat ~phase:None ~name f

(* -- validation -------------------------------------------------------- *)

(* Schema checks for emitted trace files, used by tests and the `trace`
   CLI subcommand: every line after the "[" header is a duration event
   whose cat is one of the six phases or a known envelope category,
   begin/end events are balanced per tid with matching names (properly
   nested, LIFO), and timestamps are monotonically non-decreasing per
   tid. *)

type summary = {
  events : int;  (** total B/E events *)
  spans : int;  (** matched B/E pairs *)
  phases_covered : string list;  (** phase cats with >= 1 complete span *)
}

let allowed_cats =
  List.map Metrics.phase_name Metrics.all_phases @ [ "pair"; "batch" ]

exception Bad of string

(* Minimal field extraction: we only validate files this module wrote,
   so keys are unique per line and string values contain no unescaped
   quotes. *)
let field line key lineno =
  let pat = "\"" ^ key ^ "\":" in
  match
    let plen = String.length pat and n = String.length line in
    let rec find i =
      if i + plen > n then None
      else if String.sub line i plen = pat then Some (i + plen)
      else find (i + 1)
    in
    find 0
  with
  | None -> raise (Bad (Printf.sprintf "line %d: missing field %S" lineno key))
  | Some start ->
      let n = String.length line in
      if start < n && line.[start] = '"' then begin
        (* string value: scan to the next unescaped quote *)
        let b = Buffer.create 16 in
        let rec scan i =
          if i >= n then
            raise (Bad (Printf.sprintf "line %d: unterminated string" lineno))
          else if line.[i] = '\\' && i + 1 < n then begin
            Buffer.add_char b line.[i + 1];
            scan (i + 2)
          end
          else if line.[i] = '"' then Buffer.contents b
          else begin
            Buffer.add_char b line.[i];
            scan (i + 1)
          end
        in
        scan (start + 1)
      end
      else begin
        (* numeric value: scan to the next ',' or '}' *)
        let stop = ref start in
        while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
          Stdlib.incr stop
        done;
        String.sub line start (!stop - start)
      end

let validate_file path =
  let ic = try Some (open_in path) with Sys_error _ -> None in
  match ic with
  | None -> Error (Printf.sprintf "cannot open %s" path)
  | Some ic -> (
      let finally () = close_in_noerr ic in
      let stacks : (int, (string * float) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
      let events = ref 0 and spans = ref 0 in
      let covered : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let check () =
        let lineno = ref 0 in
        (try
           while true do
             let line = input_line ic in
             Stdlib.incr lineno;
             let ln = !lineno in
             let line = String.trim line in
             if line = "" || line = "[" || line = "]" then ()
             else begin
               let name = field line "name" ln in
               let cat = field line "cat" ln in
               let ph = field line "ph" ln in
               let ts =
                 let raw = field line "ts" ln in
                 match float_of_string_opt raw with
                 | Some f -> f
                 | None ->
                     raise
                       (Bad (Printf.sprintf "line %d: bad ts %S" ln raw))
               in
               let tid =
                 let raw = field line "tid" ln in
                 match int_of_string_opt raw with
                 | Some i -> i
                 | None ->
                     raise
                       (Bad (Printf.sprintf "line %d: bad tid %S" ln raw))
               in
               if not (List.mem cat allowed_cats) then
                 raise
                   (Bad (Printf.sprintf "line %d: unknown cat %S" ln cat));
               if name = "" then
                 raise (Bad (Printf.sprintf "line %d: empty name" ln));
               (match Hashtbl.find_opt last_ts tid with
               | Some prev when ts < prev ->
                   raise
                     (Bad
                        (Printf.sprintf
                           "line %d: non-monotonic ts on tid %d (%.3f after \
                            %.3f)"
                           ln tid ts prev))
               | _ -> ());
               Hashtbl.replace last_ts tid ts;
               let stack =
                 match Hashtbl.find_opt stacks tid with
                 | Some r -> r
                 | None ->
                     let r = ref [] in
                     Hashtbl.add stacks tid r;
                     r
               in
               (match ph with
               | "B" -> stack := (name, ts) :: !stack
               | "E" -> (
                   match !stack with
                   | [] ->
                       raise
                         (Bad
                            (Printf.sprintf
                               "line %d: end event %S on tid %d with no open \
                                span"
                               ln name tid))
                   | (top, _) :: rest ->
                       if top <> name then
                         raise
                           (Bad
                              (Printf.sprintf
                                 "line %d: end event %S does not match open \
                                  span %S on tid %d"
                                 ln name top tid));
                       stack := rest;
                       Stdlib.incr spans;
                       Hashtbl.replace covered cat ())
               | _ ->
                   raise
                     (Bad (Printf.sprintf "line %d: unknown ph %S" ln ph)));
               Stdlib.incr events
             end
           done
         with End_of_file -> ());
        Hashtbl.iter
          (fun tid stack ->
            match !stack with
            | [] -> ()
            | (name, _) :: _ ->
                raise
                  (Bad
                     (Printf.sprintf "unbalanced span %S left open on tid %d"
                        name tid)))
          stacks;
        let phases_covered =
          List.filter
            (fun p -> Hashtbl.mem covered p)
            (List.map Metrics.phase_name Metrics.all_phases)
        in
        { events = !events; spans = !spans; phases_covered }
      in
      match check () with
      | s ->
          finally ();
          Ok s
      | exception Bad msg ->
          finally ();
          Error msg
      | exception e ->
          finally ();
          Error (Printexc.to_string e))
