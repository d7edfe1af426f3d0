(** Symbolic expressions over input-file bytes.

    The symbolic executor models every byte of the input file as a variable
    [Byte i] (its file offset).  Register and memory contents become
    expressions over those variables with 32-bit wrap-around semantics,
    matching {!Octo_vm.Isa.eval_binop}.  This module is the term language of
    the constraint solver that replaces angr's solver engine (paper §IV-B). *)

open Octo_vm.Isa

type t =
  | Const of int          (** 32-bit constant *)
  | Byte of int           (** input-file byte at offset [i]; value in 0..255 *)
  | Bin of binop * t * t
  | Sel of int array * t
      (** [Sel (table, idx)]: a load from a concrete read-only table at a
          symbolic index (already normalised to be in-bounds).  Produced by
          the symbolic executor for table lookups such as indirect-dispatch
          handler tables, letting the solver reason about which index
          selects a wanted value instead of concretizing the address. *)

type cond = {
  rel : relop;
  lhs : t;
  rhs : t;
}
(** A path constraint: [lhs rel rhs] must hold (unsigned comparison). *)

let const v = Const (mask32 v)
let byte i = Byte i

(* Constant folding keeps expression trees small: almost all arithmetic in
   a concrete execution prefix folds away immediately. *)
let bin op a b =
  match (a, b) with
  | Const x, Const y -> (
      match op with
      | Div | Mod when mask32 y = 0 -> Bin (op, a, b) (* preserved; faults at eval *)
      | _ -> Const (eval_binop op x y))
  | Const 0, e when op = Add || op = Or || op = Xor -> e
  | e, Const 0 when op = Add || op = Sub || op = Or || op = Xor || op = Shl || op = Shr -> e
  | e, Const 1 when op = Mul || op = Div -> e
  | _ -> Bin (op, a, b)

let to_const_opt = function Const v -> Some v | Byte _ | Bin _ | Sel _ -> None

(** [sel table idx] builds a table select, folding constant indices. *)
let sel table idx =
  match idx with
  | Const i when i >= 0 && i < Array.length table -> Const table.(i)
  | _ -> Sel (table, idx)

exception Symbolic_division_by_zero

(** [eval env e] evaluates [e] under the byte assignment [env]. *)
let rec eval env e =
  match e with
  | Const v -> v
  | Byte i -> env i land 0xff
  | Bin (op, a, b) ->
      let x = eval env a and y = eval env b in
      (match op with
      | (Div | Mod) when mask32 y = 0 -> raise Symbolic_division_by_zero
      | _ -> eval_binop op x y)
  | Sel (table, idx) ->
      let i = eval env idx in
      if i >= 0 && i < Array.length table then table.(i) else 0

(** [eval_cond env c] decides [c] under a full assignment. *)
let eval_cond env c = eval_relop c.rel (eval env c.lhs) (eval env c.rhs)

(** [vars e] collects the byte offsets occurring in [e]. *)
let rec vars_acc acc = function
  | Const _ -> acc
  | Byte i -> i :: acc
  | Bin (_, a, b) -> vars_acc (vars_acc acc a) b
  | Sel (_, idx) -> vars_acc acc idx

let vars e = List.sort_uniq compare (vars_acc [] e)

let cond_vars c = List.sort_uniq compare (vars_acc (vars_acc [] c.lhs) c.rhs)

(** [negate_rel r] is the relation holding exactly when [r] does not. *)
let negate_rel = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Ge -> Lt
  | Le -> Gt
  | Gt -> Le

let negate c = { c with rel = negate_rel c.rel }

let rec pp ppf = function
  | Const v -> Fmt.pf ppf "%d" v
  | Byte i -> Fmt.pf ppf "in[%d]" i
  | Bin (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (string_of_binop op) pp b
  | Sel (table, idx) -> Fmt.pf ppf "table%d[%a]" (Array.length table) pp idx

let pp_cond ppf c = Fmt.pf ppf "%a %s %a" pp c.lhs (string_of_relop c.rel) pp c.rhs

(** [size e] is the node count, used to bound expression growth. *)
let rec size = function
  | Const _ | Byte _ -> 1
  | Bin (_, a, b) -> 1 + size a + size b
  | Sel (_, idx) -> 1 + size idx
