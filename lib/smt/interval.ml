open Pbse_ir.Types

type t = {
  lo : int64;
  hi : int64;
}

let ucmp = Int64.unsigned_compare
let umin a b = if ucmp a b <= 0 then a else b
let umax a b = if ucmp a b >= 0 then a else b

let make lo hi =
  if ucmp lo hi > 0 then invalid_arg "Interval.make: lo >u hi";
  { lo; hi }

let point v = { lo = v; hi = v }
let top = { lo = 0L; hi = -1L }
let bool_any = { lo = 0L; hi = 1L }
let byte_any = { lo = 0L; hi = 255L }

let is_point t = if t.lo = t.hi then Some t.lo else None
let contains t v = ucmp t.lo v <= 0 && ucmp v t.hi <= 0
let hull a b = { lo = umin a.lo b.lo; hi = umax a.hi b.hi }

let definitely_true t = t.lo <> 0L
let definitely_false t = t.lo = 0L && t.hi = 0L

let bool_of b = if b then point 1L else point 0L

(* Whether every value of the interval lies in the non-negative signed
   half-range, i.e. signed and unsigned orders coincide on it. *)
let nonneg t = t.hi >= 0L

(* Unsigned addition overflow test. *)
let add_overflows a b = ucmp (Int64.add a b) a < 0

let mul_overflows a b =
  a <> 0L && b <> 0L && ucmp (Int64.unsigned_div (-1L) a) b < 0

(* Smallest all-ones mask covering v (unsigned). *)
let mask_above v =
  let rec widen m = if ucmp m v >= 0 then m else widen (Int64.logor (Int64.shift_left m 1) 1L) in
  if v = 0L then 0L else if v < 0L then -1L else widen 1L

let shift_left_total a n =
  if n >= 64 || n < 0 then 0L else Int64.shift_left a n

let shift_right_total a n =
  if n >= 64 || n < 0 then 0L else Int64.shift_right_logical a n

(* Every value in the interval is strictly negative when read as signed —
   the common shape of "x - k" encoded as x + (-k). The [neg hi > 0]
   conjunct excludes [min_int], whose negation is itself, guaranteeing the
   negated interval is strictly positive (no rewriting loop). *)
let all_negative iv = iv.lo < 0L && Int64.neg iv.hi > 0L

let negate iv = { lo = Int64.neg iv.hi; hi = Int64.neg iv.lo }

let rec binop op a b =
  match op with
  | Add ->
    (* x + (-k) is x - k; rewriting keeps loop-counter bounds precise *)
    if all_negative b then binop Sub a (negate b)
    else if all_negative a then binop Sub b (negate a)
    else if add_overflows a.hi b.hi then top
    else { lo = Int64.add a.lo b.lo; hi = Int64.add a.hi b.hi }
  | Sub ->
    if all_negative b then binop Add a (negate b)
    else if ucmp a.lo b.hi >= 0 then
      { lo = Int64.sub a.lo b.hi; hi = Int64.sub a.hi b.lo }
    else top
  | Mul ->
    if mul_overflows a.hi b.hi then top
    else { lo = Int64.mul a.lo b.lo; hi = Int64.mul a.hi b.hi }
  | Udiv ->
    (* division by zero yields 0 in our total semantics *)
    if b.lo = 0L then { lo = 0L; hi = a.hi }
    else { lo = Int64.unsigned_div a.lo b.hi; hi = Int64.unsigned_div a.hi b.lo }
  | Urem ->
    if b.lo = 0L then { lo = 0L; hi = a.hi }
    else { lo = 0L; hi = umin a.hi (Int64.sub b.hi 1L) }
  | Sdiv -> if nonneg a && nonneg b then binop_sdiv_nonneg a b else top
  | Srem ->
    if nonneg a && nonneg b then
      if b.lo = 0L then { lo = 0L; hi = a.hi }
      else { lo = 0L; hi = umin a.hi (Int64.sub b.hi 1L) }
    else top
  | And -> { lo = 0L; hi = umin a.hi b.hi }
  | Or -> { lo = umax a.lo b.lo; hi = mask_above (Int64.logor a.hi b.hi) }
  | Xor -> { lo = 0L; hi = mask_above (Int64.logor a.hi b.hi) }
  | Shl -> (
    match is_point b with
    | Some n when ucmp n 64L < 0 ->
      let n = Int64.to_int n in
      if a.hi <> 0L && ucmp a.hi (shift_right_total (-1L) n) > 0 then top
      else { lo = shift_left_total a.lo n; hi = shift_left_total a.hi n }
    | Some _ -> point 0L
    | None -> top)
  | Lshr ->
    (* monotone: larger shifts give smaller results *)
    let lo = if ucmp b.hi 64L >= 0 then 0L else shift_right_total a.lo (Int64.to_int b.hi) in
    { lo; hi = shift_right_total a.hi (Int64.to_int (umin b.lo 63L)) }
  | Ashr -> if nonneg a then binop Lshr a b else top
  | Eq -> (
    match (is_point a, is_point b) with
    | Some x, Some y -> bool_of (x = y)
    | _ -> if ucmp a.hi b.lo < 0 || ucmp b.hi a.lo < 0 then point 0L else bool_any)
  | Ne -> (
    match (is_point a, is_point b) with
    | Some x, Some y -> bool_of (x <> y)
    | _ -> if ucmp a.hi b.lo < 0 || ucmp b.hi a.lo < 0 then point 1L else bool_any)
  | Ult ->
    if ucmp a.hi b.lo < 0 then point 1L
    else if ucmp b.hi a.lo <= 0 then point 0L
    else bool_any
  | Ule ->
    if ucmp a.hi b.lo <= 0 then point 1L
    else if ucmp b.hi a.lo < 0 then point 0L
    else bool_any
  | Slt -> if nonneg a && nonneg b then binop Ult a b else bool_any
  | Sle -> if nonneg a && nonneg b then binop Ule a b else bool_any

and binop_sdiv_nonneg a b =
  if b.lo = 0L then { lo = 0L; hi = a.hi }
  else { lo = Int64.div a.lo b.hi; hi = Int64.div a.hi b.lo }

let unop op a =
  match op with
  | Neg -> if a.lo = 0L && a.hi = 0L then point 0L else top
  | Not ->
    (* complement reverses unsigned order *)
    { lo = Int64.lognot a.hi; hi = Int64.lognot a.lo }
  | Sext8 -> if ucmp a.hi 0x7FL <= 0 then a else top
  | Sext16 -> if ucmp a.hi 0x7FFFL <= 0 then a else top
  | Sext32 -> if ucmp a.hi 0x7FFFFFFFL <= 0 then a else top
  | Trunc8 -> if ucmp a.hi 0xFFL <= 0 then a else { lo = 0L; hi = 0xFFL }
  | Trunc16 -> if ucmp a.hi 0xFFFFL <= 0 then a else { lo = 0L; hi = 0xFFFFL }
  | Trunc32 -> if ucmp a.hi 0xFFFFFFFFL <= 0 then a else { lo = 0L; hi = 0xFFFFFFFFL }

let eval lookup e =
  (* same strategy as [Expr.eval]: walk small trees, memoise large ones *)
  let memo = if e.Expr.nodes <= Expr.walk_bound then None else Some (Hashtbl.create 64) in
  let rec go (e : Expr.t) =
    match e.node with
    | Expr.Const c -> point c
    | Expr.Read i ->
      let iv = lookup i in
      if ucmp iv.hi 255L > 0 then byte_any else iv
    | Expr.Bin _ | Expr.Un _ | Expr.Ite _ -> (
      match memo with
      | None -> step e
      | Some memo -> (
        match Hashtbl.find_opt memo e.id with
        | Some v -> v
        | None ->
          let v = step e in
          Hashtbl.add memo e.id v;
          v))
  and step (e : Expr.t) =
    match e.node with
    | Expr.Bin (Pbse_ir.Types.Or, x, y) when Int64.logand x.Expr.bits y.Expr.bits = 0L ->
      (* disjoint possible bits: or is addition, which the interval
         arithmetic tracks exactly — crucial for multi-byte field
         reads composed as (b0 | b1 << 8 | ...) *)
      binop Pbse_ir.Types.Add (go x) (go y)
    | Expr.Bin (op, x, y) -> binop op (go x) (go y)
    | Expr.Un (op, x) -> unop op (go x)
    | Expr.Ite (c, t, f) ->
      let ci = go c in
      if definitely_true ci then go t
      else if definitely_false ci then go f
      else hull (go t) (go f)
    | Expr.Const _ | Expr.Read _ -> assert false
  in
  go e

let to_string t = Printf.sprintf "[%Lu, %Lu]" t.lo t.hi
