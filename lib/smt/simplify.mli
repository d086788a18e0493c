(** Query preprocessing: constant folding and independence slicing.
    Pure helpers shared by {!Solver}'s entry points. *)

val cache_key : Expr.t list -> int list
(** Sorted hash-consed ids of a conjunction — the canonical cache /
    retry key (permutation-insensitive). *)

module Key_table : Hashtbl.S with type key = int list
(** Tables keyed on {!cache_key}s, hashing every id of a key (the
    polymorphic hash reads only a list's first few cells, so keys
    sharing their smallest ids would share a bucket). *)

val partition_constants : Expr.t list -> (Expr.t list, unit) result
(** Drop constant-true constraints; [Error ()] on a constant-false one
    (the conjunction is trivially unsatisfiable). Order is preserved. *)

val group_constraints : reads:(Expr.t -> int list) -> Expr.t list -> Expr.t list list
(** Partition a conjunction into independence groups: constraints land
    in the same group iff they transitively share an input byte
    (union-find). Constraints reading no input are dropped (they are
    non-constant but input-independent only for ite-free queries, which
    {!partition_constants} has already folded). *)
