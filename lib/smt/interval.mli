(** Sound unsigned interval analysis over symbolic expressions.

    An interval [{lo; hi}] denotes all 64-bit values [v] with
    [lo <=u v <=u hi]. The analysis is the solver's pruning engine: if a
    path constraint's interval is exactly [0, 0] under the current
    domains, the constraint is definitely violated. Signed operators are
    handled precisely when operands provably stay in the non-negative
    half-range and conservatively otherwise. *)

type t = private {
  lo : int64;
  hi : int64;
}

val make : int64 -> int64 -> t
(** Raises [Invalid_argument] unless [lo <=u hi]. *)

val point : int64 -> t
val top : t
val bool_any : t
(** The interval [0, 1]. *)

val is_point : t -> int64 option
val contains : t -> int64 -> bool
val hull : t -> t -> t

val definitely_true : t -> bool
(** The interval excludes 0, so any expression with this interval is a
    satisfied condition. *)

val definitely_false : t -> bool
(** The interval is exactly [0, 0]. *)

val binop : Pbse_ir.Types.binop -> t -> t -> t
val unop : Pbse_ir.Types.unop -> t -> t

val eval : (int -> t) -> Expr.t -> t
(** [eval lookup e] where [lookup i] bounds input byte [i]. Like
    {!Expr.eval}, trees of at most {!Expr.walk_bound} nodes are walked
    directly and larger ones memoise shared subexpressions within the
    call; both paths return the same interval. Work units are charged by
    the caller from [Expr.nodes], whatever the strategy. *)

val to_string : t -> string
