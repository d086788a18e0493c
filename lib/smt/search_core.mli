(** The solving core: budgeted backtracking over per-byte domains.

    Stateless apart from the caller's {!meter}: the probe and search
    mutate nothing but their own scratch structures, so {!Solver} keeps
    all caches and statistics. *)

exception Out_of_budget

type meter = {
  mutable spent : int;
  limit : int;
}

val meter : limit:int -> meter

val spend : meter -> int -> unit
(** Charge work units; raises {!Out_of_budget} past [limit]. *)

type group
(** A set of constraints over the input bytes they mention, indexed for
    propagation: byte positions in dense arrays, so the search looks
    nothing up in a hash table. *)

val build_group : reads:(Expr.t -> int list) -> Expr.t list -> group

val group_vars : group -> int array
(** Sorted input indices the group constrains. *)

type group_result =
  | Gsat of (int * int) list (* input index, value *)
  | Gunsat
  | Gunknown

val solve_group :
  on_node:(unit -> unit) ->
  meter ->
  hint:Model.t ->
  focus:int list ->
  bounds:(int -> Interval.t option) ->
  group ->
  group_result
(** Probe the hint's neighbourhood on the [focus] bytes first, then run
    interval propagation plus depth-first search. [bounds] supplies
    externally learned per-byte intervals (e.g. a prefix context's),
    intersected into the initial domains; sound as long as each bound is
    implied by constraints present in the group. [on_node] fires once
    per search-tree node (the caller's statistics hook). *)
