(** Hash-consed symbolic expressions over 64-bit values.

    Leaves are 64-bit constants and [Read i] — the i-th byte of the
    symbolic input file, always in [0, 255]. Operators are exactly the IR
    operators (their semantics is {!Semantics}), plus if-then-else.

    Hash-consing gives every structurally distinct expression a unique
    [id]; equality is O(1), and sets of expressions (path conditions,
    solver caches) key on ids. Smart constructors constant-fold and apply
    algebraic simplifications, so a fully concrete computation never
    allocates a symbolic node. *)

type t = private {
  id : int;
  hkey : int;
  node : node;
  max_read : int; (* largest input index read; -1 when concrete *)
  nodes : int; (* structural size, for budget heuristics *)
  bits : int64;
  (* sound superset of the bits the value can have set; when non-negative
     it doubles as an unsigned upper bound. Lets the solver treat
     disjoint-bit [Or] compositions (little-endian field reads) exactly. *)
}

and node =
  | Const of int64
  | Read of int
  | Bin of Pbse_ir.Types.binop * t * t
  | Un of Pbse_ir.Types.unop * t
  | Ite of t * t * t

val const : int64 -> t
val of_int : int -> t
val zero : t
val one : t

val read : int -> t
(** [read i] is input byte [i]; raises [Invalid_argument] on negative [i]. *)

val bin : Pbse_ir.Types.binop -> t -> t -> t
val un : Pbse_ir.Types.unop -> t -> t
val ite : t -> t -> t -> t

val lognot : t -> t
(** Boolean negation: comparison nodes flip to their complements, any
    other expression [e] becomes [e == 0]. [lognot (lognot e)] is truthy
    exactly when [e] is. *)

val is_const : t -> int64 option
val is_concrete : t -> bool
(** True when the expression mentions no input byte. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val reads : t -> int list
(** Sorted, distinct input-byte indices mentioned. *)

val walk_bound : int
(** Largest [nodes] evaluated by a plain tree walk; above it {!eval} and
    {!Interval.eval} memoise shared subterms. *)

val eval : (int -> int) -> t -> int64
(** [eval lookup e] evaluates under the byte assignment [lookup]
    (values are masked to [0, 255]). Trees of at most {!walk_bound}
    nodes are walked directly, with no memo table; larger ones memoise
    shared subterms, so a DAG never costs more than its distinct nodes.
    The strategy is invisible to the solver's budget: callers charge
    work units by [nodes] whichever path runs, so the wall time per work
    unit is a property of this implementation (tracked as
    [smt.ns_per_work], perfbench/README.md). *)

val to_string : t -> string

(** {1 Arenas}

    Interning is arena-scoped: every expression is hash-consed in the
    arena currently installed in the running domain (each domain starts
    with a private default arena). A driver session owns one arena and
    re-installs it before every turn, so its interning — and therefore
    every id-keyed solver cache — behaves identically no matter which
    domain executes the turn. Ids are allocated in per-domain blocks
    (the hot interning path bumps a domain-local cell; only a block
    refill touches the process-wide cursor): blocks are disjoint, so
    ids are globally unique and id equality implies physical equality
    even for expressions crossing arenas (the module-level constants) —
    but ids are not dense or allocation-ordered across domains, so
    id-keyed structures must be renaming-invariant, using only id
    equality, never id order or contiguity (all solver caches are). *)

type arena

val arena : unit -> arena
(** A fresh, empty interning arena. *)

val use_arena : arena -> unit
(** Install [a] as the running domain's interning arena. *)

val table_stats : unit -> int
(** Number of hash-consed nodes in the current arena (diagnostic). *)

val id_block_refills : unit -> int
(** Process-wide count of id-block refills since startup: how many times
    any domain exhausted its private id range and claimed a fresh block
    from the shared cursor. One refill per [8192] interned nodes per
    domain — a hot-path contention diagnostic (reported as
    [smt.id_block_refills]). Monotonic; diff two readings to scope a
    campaign. *)
