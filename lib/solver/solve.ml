(** Constraint solving over input-byte variables.

    A {!store} maintains interval domains for every byte variable together
    with the accumulated path constraints.  Adding a constraint triggers
    interval propagation (forward evaluation plus best-effort backward
    narrowing), which is what lets directed symbolic execution prune
    unsatisfiable branch choices cheaply — the loop-dead test of §III-B.
    Full model construction ([solve]) performs backtracking search with a
    node budget; every candidate model is verified by concrete evaluation,
    so narrowing never needs to be complete for soundness.

    Engine layout (the hot path of every pipeline phase):

    - Domains live in a growable array indexed by byte offset, so [dom] and
      [set_dom] are O(1) instead of assoc-list walks.
    - A var→constraint dependency index drives AC-3-style worklist
      propagation: narrowing a variable enqueues only the constraints that
      mention it, so [add] is proportional to the affected slice of the
      store rather than re-running every constraint to a fixpoint.
    - Model search records [(var, old_interval)] undo entries on a trail,
      making backtracking O(changes touched) instead of copying the whole
      store per candidate value. *)

open Octo_vm.Isa
module Deadline = Octo_util.Deadline
module Faultinject = Octo_util.Faultinject

type interval = int * int (* inclusive; over 0..2^32-1 *)

let word_max = 0xFFFFFFFF
let top : interval = (0, word_max)
let byte_top : interval = (0, 255)

(* Trail of undo records.  Represented as a cons list so a [mark] is just
   the current list: [undo_to] pops back to the marked tail by physical
   equality, touching only the entries written since the mark. *)
type trail = (int * interval) list

type store = {
  mutable doms : interval array;   (* var -> domain; byte_top when untouched *)
  mutable deps : int list array;   (* var -> ids of constraints mentioning it *)
  mutable dcap : int;              (* capacity of [doms]/[deps] *)
  mutable cons : Expr.cond array;  (* constraints in insertion order *)
  mutable ncons : int;
  mutable queued : bool array;     (* constraint id -> already on worklist *)
  mutable queue : int Queue.t;     (* propagation worklist *)
  mutable trail : trail;
  mutable trailing : bool;         (* record undo entries in [set_dom]? *)
  mutable nvars : int;             (* distinct variables seen so far *)
}

let dummy_cond : Expr.cond = { rel = Eq; lhs = Expr.Const 0; rhs = Expr.Const 0 }

let create () =
  {
    doms = [||];
    deps = [||];
    dcap = 0;
    cons = [||];
    ncons = 0;
    queued = [||];
    queue = Queue.create ();
    trail = [];
    trailing = false;
    nvars = 0;
  }

(* The queue is empty and the trail off outside [add]/[propagate]/[solve],
   so a copy starts with fresh empty ones. *)
let copy s =
  {
    doms = Array.copy s.doms;
    deps = Array.copy s.deps;
    dcap = s.dcap;
    cons = Array.copy s.cons;
    ncons = s.ncons;
    queued = Array.make (Array.length s.queued) false;
    queue = Queue.create ();
    trail = [];
    trailing = false;
    nvars = s.nvars;
  }

(* Negative offsets cannot occur for real input bytes; they are treated as
   unconstrained (never narrowed, skipped by search) so a malformed bunch
   offset degrades to "no pruning" rather than an exception. *)
let dom s v = if v < 0 || v >= s.dcap then byte_top else s.doms.(v)

let ensure_var s v =
  if v >= s.dcap then begin
    let cap = max 16 (max (v + 1) (2 * s.dcap)) in
    let doms = Array.make cap byte_top in
    Array.blit s.doms 0 doms 0 s.dcap;
    let deps = Array.make cap [] in
    Array.blit s.deps 0 deps 0 s.dcap;
    s.doms <- doms;
    s.deps <- deps;
    s.dcap <- cap
  end

(** [set_dom s v d] writes domain [d] for variable [v], recording an undo
    entry when a trail is active and enqueueing every constraint that
    mentions [v].  No-ops when the domain is unchanged, which is what makes
    worklist propagation converge (domains only shrink). *)
let set_dom s v d =
  if v >= 0 then begin
    ensure_var s v;
    let old = s.doms.(v) in
    if d <> old then begin
      if s.trailing then s.trail <- (v, old) :: s.trail;
      s.doms.(v) <- d;
      List.iter
        (fun ci ->
          if not s.queued.(ci) then begin
            s.queued.(ci) <- true;
            Queue.add ci s.queue
          end)
        s.deps.(v)
    end
  end

type mark = trail

let mark s : mark = s.trail

(** [undo_to s m] rolls the domains back to the state captured by [mark].
    Cost is proportional to the number of narrowings since the mark. *)
let undo_to s (m : mark) =
  let rec go l =
    if l != m then
      match l with
      | (v, d) :: tl ->
          s.doms.(v) <- d;
          go tl
      | [] -> ()
  in
  go s.trail;
  s.trail <- m

let constraints s = Array.to_list (Array.sub s.cons 0 s.ncons)

(* ------------------------------------------------------------------ *)
(* Forward interval evaluation with wrap-awareness: any operation that
   might wrap returns [top] rather than a wrong tight bound. *)

let pow2_bound hi =
  let rec go b = if b > hi && b - 1 <= word_max then b - 1 else go (b * 2) in
  if hi >= word_max then word_max else go 1

let rec ival s (e : Expr.t) : interval =
  match e with
  | Const v -> (v, v)
  | Byte i -> dom s i
  | Sel (table, idx) ->
      (* Bounds over the feasible slice of the table. *)
      let li, hi_ = ival s idx in
      let lo = max 0 li and hi = min (Array.length table - 1) hi_ in
      if lo > hi then (0, 0)
      else begin
        let mn = ref table.(lo) and mx = ref table.(lo) in
        for i = lo to hi do
          mn := min !mn table.(i);
          mx := max !mx table.(i)
        done;
        (* An out-of-range index evaluates to 0. *)
        if li < 0 || hi_ >= Array.length table then (min 0 !mn, !mx) else (!mn, !mx)
      end
  | Bin (op, a, b) ->
      let la, ha = ival s a and lb, hb = ival s b in
      (match op with
      | Add -> if ha + hb <= word_max then (la + lb, ha + hb) else top
      | Sub -> if la - hb >= 0 then (la - hb, ha - lb) else top
      | Mul ->
          (* Overflow-safe product bound: ha*hb can exceed the native int
             range, so divide instead of multiplying. *)
          if ha = 0 || hb <= word_max / ha then (la * lb, ha * hb) else top
      | Div -> if lb > 0 then (la / hb, ha / lb) else top
      | Mod -> if lb > 0 then (0, hb - 1) else top
      | And -> (0, min ha hb)
      | Or -> (max la lb, pow2_bound (max ha hb + min ha hb))
      | Xor -> (0, pow2_bound (max ha hb + min ha hb))
      | Shl ->
          (* Shift counts are masked to 31, as in the VM semantics; the
             overflow check divides rather than shifting left. *)
          let k = lb land 31 in
          if lb = hb && ha <= word_max lsr k then (la lsl k, ha lsl k) else top
      | Shr ->
          let k = lb land 31 in
          if lb = hb then (la lsr k, ha lsr k) else (0, ha))

(* ------------------------------------------------------------------ *)
(* Condition evaluation under current domains. *)

type verdict = True | False | Maybe

let eval_cond_iv s (c : Expr.cond) : verdict =
  let la, ha = ival s c.lhs and lb, hb = ival s c.rhs in
  match c.rel with
  | Eq -> if la = ha && lb = hb && la = lb then True else if ha < lb || la > hb then False else Maybe
  | Ne -> if ha < lb || la > hb then True else if la = ha && lb = hb && la = lb then False else Maybe
  | Lt -> if ha < lb then True else if la >= hb then False else Maybe
  | Le -> if ha <= lb then True else if la > hb then False else Maybe
  | Gt -> if la > hb then True else if ha <= lb then False else Maybe
  | Ge -> if la >= hb then True else if ha < lb then False else Maybe

(* ------------------------------------------------------------------ *)
(* Backward narrowing: given that expression [e] must lie within [lo,hi],
   tighten byte-variable domains.  Handles the invertible spine shapes that
   dominate parser constraints (offsets, lengths, masked bytes); anything
   else is left to search. *)

exception Unsat_exn

let inter (l1, h1) (l2, h2) =
  let l = max l1 l2 and h = min h1 h2 in
  if l > h then raise Unsat_exn;
  (l, h)

let rec narrow s (e : Expr.t) ((lo, hi) as want : interval) =
  if lo > hi then raise Unsat_exn;
  match e with
  | Const v -> if v < lo || v > hi then raise Unsat_exn
  | Byte i ->
      if i < 0 then ignore (inter byte_top want)
      else set_dom s i (inter (dom s i) (inter want byte_top))
  | Sel (table, idx) ->
      (* Only indices whose table entry lies in [want] remain feasible;
         narrow the index to their convex hull. *)
      let li, hi_ = ival s idx in
      let lo_i = max 0 li and hi_i = min (Array.length table - 1) hi_ in
      let first = ref (-1) and last = ref (-1) in
      for i = lo_i to hi_i do
        if table.(i) >= lo && table.(i) <= hi then begin
          if !first < 0 then first := i;
          last := i
        end
      done;
      if !first < 0 then raise Unsat_exn else narrow s idx (!first, !last)
  | Bin (op, a, b) -> (
      match (op, Expr.to_const_opt a, Expr.to_const_opt b) with
      | Add, Some k, None ->
          if lo - k >= 0 && hi - k <= word_max then narrow s b (max 0 (lo - k), hi - k)
      | Add, None, Some k ->
          if lo - k >= 0 && hi - k <= word_max then narrow s a (max 0 (lo - k), hi - k)
      | Sub, None, Some k -> if hi + k <= word_max then narrow s a (lo + k, hi + k)
      | Mul, Some k, None when k > 0 ->
          narrow s b ((lo + k - 1) / k, hi / k)
      | Mul, None, Some k when k > 0 ->
          narrow s a ((lo + k - 1) / k, hi / k)
      | Shl, None, Some k ->
          let k = k land 31 in
          narrow s a ((lo + (1 lsl k) - 1) lsr k, hi lsr k)
      | Shr, None, Some k ->
          let k = k land 31 in
          if hi <= word_max lsr k then
            narrow s a (lo lsl k, (hi lsl k) lor ((1 lsl k) - 1))
      | And, None, Some 0xff ->
          (* Common byte-masking pattern: the mask is exact when the operand
             is already a byte. *)
          let la, ha = ival s a in
          if ha <= 0xff then narrow s a (inter (la, ha) want)
      | _ ->
          (* No inversion known: at least check feasibility. *)
          let l, h = ival s e in
          if h < lo || l > hi then raise Unsat_exn)

let narrow_cond s (c : Expr.cond) =
  let la, ha = ival s c.lhs and lb, hb = ival s c.rhs in
  match c.rel with
  | Eq ->
      let l = max la lb and h = min ha hb in
      if l > h then raise Unsat_exn;
      narrow s c.lhs (l, h);
      narrow s c.rhs (l, h)
  | Ne -> (
      (* Only exact when one side is a fixed constant at a domain edge. *)
      match (Expr.to_const_opt c.lhs, Expr.to_const_opt c.rhs) with
      | Some v, None ->
          if lb = hb && lb = v then raise Unsat_exn;
          if v = lb then narrow s c.rhs (lb + 1, hb)
          else if v = hb then narrow s c.rhs (lb, hb - 1)
      | None, Some v ->
          if la = ha && la = v then raise Unsat_exn;
          if v = la then narrow s c.lhs (la + 1, ha)
          else if v = ha then narrow s c.lhs (la, ha - 1)
      | Some x, Some y -> if x = y then raise Unsat_exn
      | None, None -> ())
  | Lt ->
      if lb = 0 && hb = 0 then raise Unsat_exn;
      narrow s c.lhs (la, min ha (hb - 1));
      narrow s c.rhs (max lb (la + 1), hb)
  | Le ->
      narrow s c.lhs (la, min ha hb);
      narrow s c.rhs (max lb la, hb)
  | Gt ->
      narrow s c.lhs (max la (lb + 1), ha);
      narrow s c.rhs (lb, min hb (ha - 1))
  | Ge ->
      narrow s c.lhs (max la lb, ha);
      narrow s c.rhs (lb, min hb ha)

(* ------------------------------------------------------------------ *)
(* Worklist propagation: drain the queue of dirty constraints, where
   narrowing a variable re-enqueues exactly the constraints that mention it.
   Domains only shrink over a finite lattice, so the drain terminates; a
   work budget additionally guards against pathological ping-ponging between
   constraints that narrow without converging quickly (propagation is
   best-effort, so stopping early is sound). *)

let clear_queue s =
  Queue.iter (fun ci -> s.queued.(ci) <- false) s.queue;
  Queue.clear s.queue

let propagate s =
  let budget = ref (200 + (64 * s.ncons)) in
  try
    while not (Queue.is_empty s.queue) do
      let ci = Queue.pop s.queue in
      s.queued.(ci) <- false;
      if !budget > 0 then begin
        decr budget;
        narrow_cond s s.cons.(ci)
      end
      else clear_queue s
    done
  with e ->
    clear_queue s;
    raise e

type add_result = Ok | Unsat

let push_cons s (c : Expr.cond) : int =
  let id = s.ncons in
  if id >= Array.length s.cons then begin
    let cap = max 16 (2 * Array.length s.cons) in
    let cons = Array.make cap dummy_cond in
    Array.blit s.cons 0 cons 0 s.ncons;
    let queued = Array.make cap false in
    Array.blit s.queued 0 queued 0 s.ncons;
    s.cons <- cons;
    s.queued <- queued
  end;
  s.cons.(id) <- c;
  s.ncons <- id + 1;
  List.iter
    (fun v ->
      if v >= 0 then begin
        ensure_var s v;
        if s.deps.(v) = [] then s.nvars <- s.nvars + 1;
        s.deps.(v) <- id :: s.deps.(v)
      end)
    (Expr.cond_vars c);
  id

(* Remove the most recently added constraint (and its dependency-index
   entries); only valid directly after [push_cons]. *)
let pop_cons s (id : int) =
  assert (id = s.ncons - 1);
  let c = s.cons.(id) in
  List.iter
    (fun v ->
      if v >= 0 && v < s.dcap then
        s.deps.(v) <- List.filter (fun i -> i <> id) s.deps.(v))
    (Expr.cond_vars c);
  s.cons.(id) <- dummy_cond;
  s.queued.(id) <- false;
  s.ncons <- id

(** [add s c] records constraint [c] and propagates from it through the
    dependency index.  [Unsat] means the store is now definitely
    unsatisfiable (a domain emptied); [Ok] means it may still be
    satisfiable. *)
let add s (c : Expr.cond) : add_result =
  Octo_util.Metrics.incr Octo_util.Metrics.Constraint_adds;
  let id = push_cons s c in
  s.queued.(id) <- true;
  Queue.add id s.queue;
  try
    propagate s;
    Ok
  with Unsat_exn -> Unsat

(** [entails s c] evaluates [c] under the current domains. *)
let entails s c = eval_cond_iv s c

(* ------------------------------------------------------------------ *)
(* Cross-phase scopes.

   A scope records every narrowing on the trail over an arbitrary
   sequence of [add]s — the shape P3 bunch pinning needs, and with one
   [add], {!add_checked}.  Pins land on the live store one [add] at a
   time (propagation is incremental, reusing every narrowing performed
   by earlier phases), and when one of them conflicts the caller
   can first interrogate the poisoned store (e.g. {!unsat_core} over
   {!constraints} — the scoped constraints are ordinary constraints) and
   then [pop_scope] back to the exact pre-scope state instead of
   discarding the store.

   Scopes nest, and [solve] saves and restores [trailing] itself and
   undoes to its own mark, so calling it inside an open scope is safe. *)

type scope = {
  sc_mark : mark;            (* trail suffix to roll narrowings back to *)
  sc_ncons : int;            (* constraint count to pop back to *)
  sc_was_trailing : bool;    (* outer trail mode to restore *)
}

(** [push_scope s] opens a scope: every subsequent narrowing is recorded
    on the trail until the matching [pop_scope]/[commit_scope]. *)
let push_scope s : scope =
  let sc = { sc_mark = s.trail; sc_ncons = s.ncons; sc_was_trailing = s.trailing } in
  s.trailing <- true;
  sc

(** [pop_scope s sc] rolls back every narrowing and every constraint added
    since [push_scope]: domains are restored from the trail, constraints
    retracted newest-first (the LIFO discipline [pop_cons] requires).
    Cost is proportional to the scope's own footprint, not the store's. *)
let pop_scope s (sc : scope) =
  undo_to s sc.sc_mark;
  while s.ncons > sc.sc_ncons do
    pop_cons s (s.ncons - 1)
  done;
  s.trailing <- sc.sc_was_trailing;
  if not sc.sc_was_trailing then s.trail <- []

(** [commit_scope s sc] keeps the scope's constraints and narrowings and
    restores the outer trail mode — the success path of a pin batch. *)
let commit_scope s (sc : scope) =
  s.trailing <- sc.sc_was_trailing;
  if not sc.sc_was_trailing then s.trail <- []

(** [add_checked s c] is [add] that leaves the store untouched when the
    constraint is unsatisfiable: a one-constraint scope, popped on [Unsat]
    and committed on [Ok].  This is what lets a branch chooser probe one
    direction and cleanly fall back to the other without poisoning the
    store (directed execution's push/pop at branch points). *)
let add_checked s (c : Expr.cond) : add_result =
  let sc = push_scope s in
  let r = add s c in
  (match r with Unsat -> pop_scope s sc | Ok -> commit_scope s sc);
  r

(* ------------------------------------------------------------------ *)
(* Model search. *)

type model = (int, int) Hashtbl.t

(** [model_byte m i] reads offset [i] from a model; unconstrained bytes
    default to 0. *)
let model_byte (m : model) i = match Hashtbl.find_opt m i with Some v -> v | None -> 0

type solve_result =
  | Sat of model
  | Unsat_result
  | Unknown  (** node budget exhausted *)

exception Budget_exceeded
(** Raised internally when the model-search node budget runs out; distinct
    from any exception used for control flow in fixed-variable checking so
    the two can never be conflated. *)

exception Not_fixed
(* Control flow of [check_fixed]'s environment lookup only. *)

let all_vars s =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  for i = 0 to s.ncons - 1 do
    List.iter
      (fun v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          acc := v :: !acc
        end)
      (Expr.cond_vars s.cons.(i))
  done;
  List.sort compare !acc

(* Check all constraints whose variables are fully fixed by the domains. *)
let check_fixed s =
  let env i =
    let l, h = dom s i in
    if l = h then l else raise Not_fixed
  in
  let rec go i =
    i >= s.ncons
    || (try Expr.eval_cond env s.cons.(i) with
        | Not_fixed -> true
        | Expr.Symbolic_division_by_zero -> false)
       && go (i + 1)
  in
  go 0

(** [solve ?budget ?deadline ?inject s] searches for a concrete byte
    assignment satisfying every constraint in [s].  The search assigns
    variables smallest-domain first, backtracking via the trail, and
    verifies the final assignment by concrete evaluation.  The store's
    domains are restored on return — including when the [deadline] expires
    mid-search ({!Octo_util.Deadline.Deadline_exceeded} propagates after the
    trail is rolled back).  A fired {!Faultinject.Solver_budget} site
    starves the search: it returns [Unknown] exactly as a spent node budget
    would. *)
let solve ?(budget = 200_000) ?(deadline = Deadline.none) ?(inject = Faultinject.none)
    (s : store) : solve_result =
  Octo_util.Trace.with_span Octo_util.Trace.Solve "model-search" @@ fun () ->
  if Faultinject.fire inject Faultinject.Solver_budget then Unknown
  else begin
  let nodes = ref 0 in
  let vars = List.filter (fun v -> v >= 0) (all_vars s) in
  let exception Found of model in
  let rec go remaining =
    incr nodes;
    if !nodes > budget then raise Budget_exceeded;
    if !nodes land 255 = 0 then Deadline.check deadline ~what:"solver model search";
    (* Select the unfixed variable with the smallest domain. *)
    let unfixed =
      List.filter_map
        (fun v ->
          let l, h = dom s v in
          if l = h then None else Some (v, h - l))
        remaining
    in
    match unfixed with
    | [] ->
        if check_fixed s then begin
          let m = Hashtbl.create 16 in
          List.iter
            (fun v ->
              let l, _ = dom s v in
              Hashtbl.replace m v l)
            vars;
          raise (Found m)
        end
    | _ ->
        let v, _ = List.fold_left (fun (bv, bw) (v, w) -> if w < bw then (v, w) else (bv, bw))
            (List.hd unfixed) (List.tl unfixed)
        in
        let l, h = dom s v in
        (* Ascending scan is fine: domains are at most 256 wide. *)
        for x = l to h do
          let m0 = mark s in
          (match (try set_dom s v (x, x); propagate s; true with Unsat_exn -> false) with
          | true -> go remaining
          | false -> ());
          undo_to s m0
        done
  in
  let was = s.trailing in
  s.trailing <- true;
  let m0 = mark s in
  let restore () =
    undo_to s m0;
    s.trailing <- was;
    Octo_util.Metrics.add Octo_util.Metrics.Solver_nodes !nodes
  in
  match go vars with
  | () ->
      restore ();
      Unsat_result
  | exception Found m ->
      restore ();
      Sat m
  | exception Budget_exceeded ->
      restore ();
      Unknown
  | exception Unsat_exn ->
      restore ();
      Unsat_result
  | exception e ->
      (* Deadline expiry (or any unexpected exception): leave the store
         clean before propagating. *)
      restore ();
      raise e
  end

(** [sat ?budget ?deadline s extra] checks satisfiability of [s] plus the
    extra constraints without mutating [s]. *)
let sat ?budget ?deadline (s : store) (extra : Expr.cond list) : solve_result =
  let s' = copy s in
  let ok = List.for_all (fun c -> add s' c = Ok) extra in
  if not ok then Unsat_result else solve ?budget ?deadline s'

(** [unsat_core ?solve_budget ?max_constraints cs] minimizes an
    unsatisfiable constraint set by greedy deletion: every constraint is
    tried for removal once, in order, and dropped iff the remainder is
    still refutable.  Refutability is checked first at propagation level
    (some [add] into a fresh store returns [Unsat] — the common case for
    P3 pin conflicts, and cheap) and then, for sets only the model search
    can refute, by a [solve] bounded at [solve_budget] nodes, where
    [Unknown] conservatively counts as "not refuted" (the constraint is
    kept).  Returns [] when the input set is not detectably unsatisfiable
    within the budgets, or when it exceeds [max_constraints] (the pass is
    quadratic).  Deterministic: the core preserves input order and
    depends only on the input list. *)
let unsat_core ?(solve_budget = 20_000) ?(max_constraints = 400) (cs : Expr.cond list) :
    Expr.cond list =
  let refuted set =
    let s = create () in
    let rec add_all = function
      | [] -> false
      | c :: rest -> ( match add s c with Unsat -> true | Ok -> add_all rest)
    in
    add_all set
    || (match solve ~budget:solve_budget s with
       | Unsat_result -> true
       | Sat _ | Unknown -> false)
  in
  let n = List.length cs in
  if n = 0 || n > max_constraints || not (refuted cs) then []
  else begin
    let arr = Array.of_list cs in
    let keep = Array.make n true in
    let without i =
      let acc = ref [] in
      for j = n - 1 downto 0 do
        if keep.(j) && j <> i then acc := arr.(j) :: !acc
      done;
      !acc
    in
    for i = 0 to n - 1 do
      if refuted (without i) then keep.(i) <- false
    done;
    let acc = ref [] in
    for j = n - 1 downto 0 do
      if keep.(j) then acc := arr.(j) :: !acc
    done;
    !acc
  end
