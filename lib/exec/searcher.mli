(** State-selection strategies (KLEE's "searchers").

    The executor asks the searcher which state to run next; the searcher
    learns about new, forked and finished states through callbacks. All
    strategies from the paper's Table I are implemented:

    - [dfs] / [bfs]: newest / oldest state first;
    - [random_state]: uniform over pending states;
    - [random_path]: KLEE's execution-tree walk — from the root, pick a
      random child at every branch until a leaf state is reached, which
      biases towards shallow, rarely-visited subtrees;
    - [covnew] and [md2u]: weighted-random heuristics based on the static
      minimum distance to uncovered code (md2u), with [covnew] boosting
      states that recently covered new instructions;
    - [interleave]: round-robin over sub-searchers; KLEE's default is
      random-path interleaved with covnew. *)

type t = {
  name : string;
  add : State.t -> unit;
  fork : parent:State.t -> State.t -> unit;
  remove : State.t -> unit;
  select : unit -> State.t option;
  touch : State.t -> unit;
      (** [touch st]: [st], a state this searcher holds, was picked by
          another searcher sharing the state set and is about to run.
          The contract every searcher relies on: the engine writes only
          to the state [select] (or a sibling's select, reported here)
          last returned, and new states arrive through [add]/[fork].
          Weighted searchers mark the state's cached weight stale;
          [interleave] forwards each sub-searcher's pick to the others;
          the other searchers ignore it. *)
  size : unit -> int;
}

val dfs : unit -> t
val bfs : unit -> t
val random_state : Pbse_util.Rng.t -> t
val random_path : Pbse_util.Rng.t -> t
val covnew : Pbse_util.Rng.t -> Pbse_ir.Cfg.t -> Coverage.t -> t
val md2u : Pbse_util.Rng.t -> Pbse_ir.Cfg.t -> Coverage.t -> t

val interleave : string -> t list -> t
(** Shares the state set across sub-searchers, alternating selection. *)

val default : Pbse_util.Rng.t -> Pbse_ir.Cfg.t -> Coverage.t -> t
(** KLEE's default: random-path and covnew, interleaved. *)

val names : string list
(** All selectable searcher names. *)

val by_name :
  string -> (Pbse_util.Rng.t -> Pbse_ir.Cfg.t -> Coverage.t -> t) option
(** Factory lookup: "dfs", "bfs", "random-state", "random-path",
    "covnew", "md2u", "default". *)
