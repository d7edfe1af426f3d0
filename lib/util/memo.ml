(** One bounded, domain-safe memo table for values derived from a program:
    its compiled form ([Compile.get]), its clone profile ([Clone.profile])
    and its CFG distance maps ([Cfg.build_cached]).

    Keys are strings built on the program's content digest, never on
    physical identity, so a program mutated in place misses.  A key is
    admitted on its second miss.  Most programs of a generated stream take
    part in one pair: holding their one-shot values would only feed them
    to the major heap (they survive minor collections while the table
    holds them) and lengthen every minor pause.  A program that recurs (a
    registry pass, an escalated retry, a scan probe or target) is admitted
    on its second build and hit from the third on.  A full table, or a
    full set of keys missed once, is reset.  Values are immutable, so hits
    hand out shared references across domains; when two domains build the
    same key at once, the value that landed first is kept. *)

(** Entries per table and keys per seen-once set.  A larger cap costs
    peak RSS on the scan workload (DESIGN.md §6c). *)
let cap = 64

type 'a t = {
  lock : Mutex.t;
  values : (string, 'a) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;  (** keys missed once *)
}

let create () = { lock = Mutex.create (); values = Hashtbl.create 16; seen = Hashtbl.create 16 }

(** [find_or_add t key build] is [(v, true)] when [key] is in [t], and
    otherwise [(build (), false)] — [build] runs outside the lock, and an
    exception it raises leaves [t] unchanged.  The second miss of [key]
    admits it; if another domain admitted [key] meanwhile, its value is
    returned instead. *)
let find_or_add t key build =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.values key) with
  | Some v -> (v, true)
  | None ->
      let v = build () in
      Mutex.protect t.lock (fun () ->
          match Hashtbl.find_opt t.values key with
          | Some v' -> (v', false)
          | None ->
              if Hashtbl.mem t.seen key then begin
                Hashtbl.remove t.seen key;
                if Hashtbl.length t.values >= cap then Hashtbl.reset t.values;
                Hashtbl.add t.values key v
              end
              else begin
                if Hashtbl.length t.seen >= cap then Hashtbl.reset t.seen;
                Hashtbl.add t.seen key ()
              end;
              (v, false))

let find_opt t key = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.values key)
let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.values)

(** [clear t] drops every value and every seen-once key. *)
let clear t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.values;
      Hashtbl.reset t.seen)
