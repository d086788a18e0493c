open Pbse_ir.Types

type t = {
  id : int;
  hkey : int;
  node : node;
  max_read : int;
  nodes : int;
  bits : int64;
}

and node =
  | Const of int64
  | Read of int
  | Bin of binop * t * t
  | Un of unop * t
  | Ite of t * t * t

(* --- hash-consing ------------------------------------------------------- *)

let node_equal a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Read i, Read j -> i = j
  | Bin (op1, a1, b1), Bin (op2, a2, b2) -> op1 = op2 && a1.id = a2.id && b1.id = b2.id
  | Un (op1, a1), Un (op2, a2) -> op1 = op2 && a1.id = a2.id
  | Ite (c1, t1, e1), Ite (c2, t2, e2) -> c1.id = c2.id && t1.id = t2.id && e1.id = e2.id
  | (Const _ | Read _ | Bin _ | Un _ | Ite _), _ -> false

let combine h a = (h * 0x01000193) lxor a

let node_hash = function
  | Const x -> combine 1 (Int64.to_int x land max_int)
  | Read i -> combine 2 i
  | Bin (op, a, b) -> combine (combine (combine 3 (Hashtbl.hash op)) a.id) b.id
  | Un (op, a) -> combine (combine 4 (Hashtbl.hash op)) a.id
  | Ite (c, t, e) -> combine (combine (combine 5 c.id) t.id) e.id

module Table = Hashtbl.Make (struct
  type nonrec t = node

  let equal = node_equal
  let hash = node_hash
end)

(* Hash-consing arena: one interning table per execution context. Each
   driver session owns an arena and installs it (domain-locally) before
   running, so parallel campaign turns never contend on a shared table
   and a session's interning behaviour is identical regardless of which
   domain — or how many — executes its turns. The table holds strong
   references: an arena's expressions live exactly as long as the arena
   (a session), which keeps solver caches keyed on ids immune to
   re-interning nondeterminism. *)
type arena = { table : t Table.t }

(* Ids are allocated in per-domain blocks: a domain holds a private
   [next, limit) range and bumps a plain field, so the hot interning
   path never touches shared memory; only a refill (every [id_block]
   ids) claims a fresh block from the process-wide cursor. Blocks are
   disjoint, so ids stay globally unique and id equality still implies
   physical equality even across arenas (e.g. the shared [zero]/[one]
   constants interned at module initialisation). Ids are NOT dense or
   allocation-ordered across domains — which is fine, because every
   id-keyed structure (solver caches, memo tables) is
   renaming-invariant: only id {e equality} carries meaning
   (docs/parallelism.md). *)
let id_block = 8192
let next_block = Atomic.make 0
let block_refills = Atomic.make 0

type id_cell = { mutable next : int; mutable limit : int }

let dls_ids : id_cell Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { next = 0; limit = 0 })

let fresh_id () =
  let cell = Domain.DLS.get dls_ids in
  if cell.next >= cell.limit then begin
    let b = Atomic.fetch_and_add next_block 1 in
    Atomic.incr block_refills;
    cell.next <- b * id_block;
    cell.limit <- (b + 1) * id_block
  end;
  let id = cell.next in
  cell.next <- id + 1;
  id

let id_block_refills () = Atomic.get block_refills
let arena () = { table = Table.create 4096 }
let dls_arena : arena Domain.DLS.key = Domain.DLS.new_key arena
let use_arena a = Domain.DLS.set dls_arena a

(* Smallest all-ones mask covering [v] (unsigned). *)
let smear v =
  let rec widen m =
    if Int64.unsigned_compare m v >= 0 then m
    else widen (Int64.logor (Int64.shift_left m 1) 1L)
  in
  if v = 0L then 0L else if v < 0L then -1L else widen 1L

(* Sound superset of the bits the expression's value can have set. Used
   for cheap comparison folding and to recognise disjoint-bit [Or]
   compositions (little-endian field reads) in the interval analysis. *)
let bits_of node =
  match node with
  | Const c -> c
  | Read _ -> 0xFFL
  | Bin (op, a, b) -> (
    let open Pbse_ir.Types in
    match op with
    | And -> Int64.logand a.bits b.bits
    | Or | Xor -> Int64.logor a.bits b.bits
    | Add ->
      if Int64.logand a.bits b.bits = 0L then Int64.logor a.bits b.bits
      else
        let both = Int64.logor a.bits b.bits in
        if both < 0L then -1L else Int64.logor (smear both) (Int64.add (smear both) 1L)
    | Mul ->
      if a.bits = 0L || b.bits = 0L then 0L
      else if
        a.bits > 0L && b.bits > 0L
        && Int64.div Int64.max_int (smear a.bits) >= smear b.bits
      then smear (Int64.mul (smear a.bits) (smear b.bits))
      else -1L
    | Shl -> (
      match b.node with
      | Const k when Int64.unsigned_compare k 64L < 0 ->
        Int64.shift_left a.bits (Int64.to_int k)
      | _ -> -1L)
    | Lshr -> (
      match b.node with
      | Const k when Int64.unsigned_compare k 64L < 0 ->
        Int64.shift_right_logical a.bits (Int64.to_int k)
      | _ -> if a.bits >= 0L then smear a.bits else -1L)
    | Eq | Ne | Ult | Ule | Slt | Sle -> 1L
    | Udiv | Urem -> if a.bits >= 0L then smear a.bits else -1L
    | Sub | Sdiv | Srem | Ashr -> -1L)
  | Un (op, a) -> (
    let open Pbse_ir.Types in
    match op with
    | Trunc8 -> Int64.logand a.bits 0xFFL
    | Trunc16 -> Int64.logand a.bits 0xFFFFL
    | Trunc32 -> Int64.logand a.bits 0xFFFFFFFFL
    | Sext8 -> if Int64.logand a.bits 0x80L = 0L then a.bits else -1L
    | Sext16 -> if Int64.logand a.bits 0x8000L = 0L then a.bits else -1L
    | Sext32 -> if Int64.logand a.bits 0x80000000L = 0L then a.bits else -1L
    | Neg | Not -> -1L)
  | Ite (_, t, e) -> Int64.logor t.bits e.bits

let make node =
  let max_read, nodes =
    match node with
    | Const _ -> (-1, 1)
    | Read i -> (i, 1)
    | Bin (_, a, b) -> (max a.max_read b.max_read, 1 + a.nodes + b.nodes)
    | Un (_, a) -> (a.max_read, 1 + a.nodes)
    | Ite (c, t, e) ->
      (max c.max_read (max t.max_read e.max_read), 1 + c.nodes + t.nodes + e.nodes)
  in
  let table = (Domain.DLS.get dls_arena).table in
  match Table.find_opt table node with
  | Some interned -> interned
  | None ->
    let interned =
      { id = fresh_id (); hkey = node_hash node land max_int;
        node; max_read; nodes; bits = bits_of node }
    in
    Table.add table node interned;
    interned

let table_stats () = Table.length (Domain.DLS.get dls_arena).table

(* --- constructors with simplification ----------------------------------- *)

let const c = make (Const c)
let of_int i = const (Int64.of_int i)
let zero = const 0L
let one = const 1L
let all_ones = const (-1L)

let read i =
  if i < 0 then invalid_arg "Expr.read: negative index";
  make (Read i)

let is_const e = match e.node with Const c -> Some c | Read _ | Bin _ | Un _ | Ite _ -> None
let is_concrete e = e.max_read < 0

(* Unsigned upper bound that is obvious from the node shape alone; used to
   fold comparisons against constants without a full interval analysis.
   Returns None when no cheap bound exists. *)
let cheap_ubound e = if e.bits >= 0L then Some e.bits else None

let is_boolean e =
  match e.node with
  | Bin ((Eq | Ne | Ult | Ule | Slt | Sle), _, _) -> true
  | Const (0L | 1L) -> true
  | Const _ | Read _ | Bin _ | Un _ | Ite _ -> false

let negate_cmp e =
  match e.node with
  | Bin (Eq, a, b) -> Some (make (Bin (Ne, a, b)))
  | Bin (Ne, a, b) -> Some (make (Bin (Eq, a, b)))
  | Bin (Ult, a, b) -> Some (make (Bin (Ule, b, a)))
  | Bin (Ule, a, b) -> Some (make (Bin (Ult, b, a)))
  | Bin (Slt, a, b) -> Some (make (Bin (Sle, b, a)))
  | Bin (Sle, a, b) -> Some (make (Bin (Slt, b, a)))
  | Const c -> Some (if c = 0L then one else zero)
  | Read _ | Bin _ | Un _ | Ite _ -> None

let rec bin op a b =
  match (a.node, b.node) with
  | Const x, Const y -> const (Semantics.binop op x y)
  | _ -> bin_simplify op a b

and bin_simplify op a b =
  let default () = make (Bin (op, a, b)) in
  match op with
  | Add -> (
    match (a.node, b.node) with
    | Const 0L, _ -> b
    | _, Const 0L -> a
    (* normalise constants to the right and reassociate, so loop-counter
       chains (((i + 1) + 1) + ...) stay constant-size *)
    | Const _, _ -> bin Add b a
    | Bin (Add, x, { node = Const c1; _ }), Const c2 ->
      bin Add x (const (Int64.add c1 c2))
    | _, _ -> default ())
  | Sub -> (
    match (a.node, b.node) with
    | _, Const 0L -> a
    | _, _ when a.id = b.id -> zero
    | _, Const c -> bin Add a (const (Int64.neg c))
    | _, _ -> default ())
  | Mul -> (
    match (a.node, b.node) with
    | Const 0L, _ | _, Const 0L -> zero
    | Const 1L, _ -> b
    | _, Const 1L -> a
    | Const _, _ -> bin Mul b a
    | _, _ -> default ())
  | And -> (
    match (a.node, b.node) with
    | Const 0L, _ | _, Const 0L -> zero
    | Const -1L, _ -> b
    | _, Const -1L -> a
    | _, _ when a.id = b.id -> a
    | Const _, _ -> bin And b a
    | Bin (And, x, { node = Const c1; _ }), Const c2 ->
      bin And x (const (Int64.logand c1 c2))
    | _, Const m -> (
      (* masking a value already within the mask is the identity *)
      match cheap_ubound a with
      | Some ub
        when Int64.unsigned_compare ub m <= 0
             && Int64.logand (Int64.add m 1L) m = 0L -> a
      | Some _ | None -> default ())
    | _, _ -> default ())
  | Or -> (
    match (a.node, b.node) with
    | Const 0L, _ -> b
    | _, Const 0L -> a
    | Const -1L, _ | _, Const -1L -> all_ones
    | _, _ when a.id = b.id -> a
    | Const _, _ -> bin Or b a
    | _, _ -> default ())
  | Xor -> (
    match (a.node, b.node) with
    | Const 0L, _ -> b
    | _, Const 0L -> a
    | _, _ when a.id = b.id -> zero
    | _, _ -> default ())
  | Shl | Lshr -> (
    match (a.node, b.node) with
    | Const 0L, _ -> zero
    | _, Const 0L -> a
    | _, _ -> default ())
  | Ashr -> (
    match (a.node, b.node) with
    | Const 0L, _ -> zero
    | _, Const 0L -> a
    | _, _ -> default ())
  | Eq -> (
    match (a.node, b.node) with
    | _, _ when a.id = b.id -> one
    | Const _, _ -> bin Eq b a
    | _, Const 0L when is_boolean a -> (
      match negate_cmp a with Some e -> e | None -> make (Bin (Eq, a, b)))
    | _, Const 1L when is_boolean a -> a
    | _, Const c -> (
      match cheap_ubound a with
      | Some ub when Int64.unsigned_compare c ub > 0 -> zero
      | Some _ | None -> make (Bin (Eq, a, b)))
    | _, _ -> default ())
  | Ne -> (
    match (a.node, b.node) with
    | _, _ when a.id = b.id -> zero
    | Const _, _ -> bin Ne b a
    | _, Const 0L when is_boolean a -> a
    | _, Const c -> (
      match cheap_ubound a with
      | Some ub when Int64.unsigned_compare c ub > 0 -> one
      | Some _ | None -> make (Bin (Ne, a, b)))
    | _, _ -> default ())
  | Ult -> (
    match (a.node, b.node) with
    | _, _ when a.id = b.id -> zero
    | _, Const 0L -> zero
    | _, Const c -> (
      match cheap_ubound a with
      | Some ub when Int64.unsigned_compare ub c < 0 -> one
      | Some _ | None -> default ())
    | _, _ -> default ())
  | Ule -> (
    match (a.node, b.node) with
    | _, _ when a.id = b.id -> one
    | Const 0L, _ -> one
    | _, Const c -> (
      match cheap_ubound a with
      | Some ub when Int64.unsigned_compare ub c <= 0 -> one
      | Some _ | None -> default ())
    | _, _ -> default ())
  | Slt -> if a.id = b.id then zero else default ()
  | Sle -> if a.id = b.id then one else default ()
  | Udiv | Sdiv | Urem | Srem -> (
    match (a.node, b.node) with
    | _, Const 1L when op = Udiv || op = Sdiv -> a
    | _, Const 1L -> zero
    | _, _ -> default ())

let un op a =
  match a.node with
  | Const x -> const (Semantics.unop op x)
  | _ -> (
    match op with
    (* canonicalise truncations to masks so the solver sees one shape *)
    | Trunc8 -> bin And a (const 0xFFL)
    | Trunc16 -> bin And a (const 0xFFFFL)
    | Trunc32 -> bin And a (const 0xFFFFFFFFL)
    | Neg -> bin Sub zero a
    | Not -> bin Xor a all_ones
    | Sext8 | Sext16 | Sext32 -> (
      (* extension is the identity when the sign bit is provably clear *)
      let bits = match op with Sext8 -> 7L | Sext16 -> 15L | _ -> 31L in
      let limit = Int64.shift_left 1L (Int64.to_int bits) in
      match cheap_ubound a with
      | Some ub when Int64.unsigned_compare ub limit < 0 -> a
      | Some _ | None -> make (Un (op, a))))

let ite c t e =
  match c.node with
  | Const 0L -> e
  | Const _ -> t
  | _ -> if t.id = e.id then t else make (Ite (c, t, e))

let lognot e =
  match negate_cmp e with
  | Some ne -> ne
  | None -> bin Eq e zero

(* --- queries ------------------------------------------------------------ *)

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash a = a.hkey

let reads e =
  let seen = Hashtbl.create 64 in
  let acc = Hashtbl.create 16 in
  let rec go e =
    if e.max_read >= 0 && not (Hashtbl.mem seen e.id) then begin
      Hashtbl.add seen e.id ();
      match e.node with
      | Read i -> Hashtbl.replace acc i ()
      | Const _ -> ()
      | Bin (_, a, b) ->
        go a;
        go b
      | Un (_, a) -> go a
      | Ite (c, t, e') ->
        go c;
        go t;
        go e'
    end
  in
  go e;
  List.sort Int.compare (Hashtbl.fold (fun k () l -> k :: l) acc [])

(* Expressions whose tree size is at most this are evaluated by a plain
   recursive walk: its cost is bounded by [nodes], which callers already
   charge, and it allocates no memo table. Larger ones memoise shared
   subterms, so a DAG whose tree unfolding is exponential stays linear. *)
let walk_bound = 256

let eval lookup e =
  let memo = if e.nodes <= walk_bound then None else Some (Hashtbl.create 64) in
  let rec go e =
    match e.node with
    | Const c -> c
    | Read i -> Int64.of_int (lookup i land 0xFF)
    | Bin _ | Un _ | Ite _ -> (
      match memo with
      | None -> step e
      | Some memo -> (
        match Hashtbl.find_opt memo e.id with
        | Some v -> v
        | None ->
          let v = step e in
          Hashtbl.add memo e.id v;
          v))
  and step e =
    match e.node with
    | Bin (op, a, b) -> Semantics.binop op (go a) (go b)
    | Un (op, a) -> Semantics.unop op (go a)
    | Ite (c, t, e') -> if Semantics.truthy (go c) then go t else go e'
    | Const _ | Read _ -> assert false
  in
  go e

let to_string e =
  let buf = Buffer.create 64 in
  let rec go e =
    match e.node with
    | Const c -> Buffer.add_string buf (Int64.to_string c)
    | Read i -> Buffer.add_string buf (Printf.sprintf "in[%d]" i)
    | Bin (op, a, b) ->
      Buffer.add_char buf '(';
      Buffer.add_string buf (Pbse_ir.Printer.binop_to_string op);
      Buffer.add_char buf ' ';
      go a;
      Buffer.add_char buf ' ';
      go b;
      Buffer.add_char buf ')'
    | Un (op, a) ->
      Buffer.add_char buf '(';
      Buffer.add_string buf (Pbse_ir.Printer.unop_to_string op);
      Buffer.add_char buf ' ';
      go a;
      Buffer.add_char buf ')'
    | Ite (c, t, e') ->
      Buffer.add_string buf "(ite ";
      go c;
      Buffer.add_char buf ' ';
      go t;
      Buffer.add_char buf ' ';
      go e';
      Buffer.add_char buf ')'
  in
  go e;
  Buffer.contents buf
