open Pbse_smt
module T = Pbse_ir.Types

(* A reference AST that mirrors Expr but is built and evaluated without any
   simplification; qcheck compares the two evaluators, which verifies every
   smart-constructor rewrite against Semantics. *)
type spec =
  | Sconst of int64
  | Sread of int
  | Sbin of T.binop * spec * spec
  | Sun of T.unop * spec
  | Site of spec * spec * spec

let rec build = function
  | Sconst c -> Expr.const c
  | Sread i -> Expr.read i
  | Sbin (op, a, b) -> Expr.bin op (build a) (build b)
  | Sun (op, a) -> Expr.un op (build a)
  | Site (c, t, e) -> Expr.ite (build c) (build t) (build e)

let rec ref_eval lookup = function
  | Sconst c -> c
  | Sread i -> Int64.of_int (lookup i land 0xFF)
  | Sbin (op, a, b) -> Semantics.binop op (ref_eval lookup a) (ref_eval lookup b)
  | Sun (op, a) -> Semantics.unop op (ref_eval lookup a)
  | Site (c, t, e) ->
    if Semantics.truthy (ref_eval lookup c) then ref_eval lookup t else ref_eval lookup e

let all_binops =
  [
    T.Add; T.Sub; T.Mul; T.Udiv; T.Sdiv; T.Urem; T.Srem; T.And; T.Or; T.Xor;
    T.Shl; T.Lshr; T.Ashr; T.Eq; T.Ne; T.Ult; T.Ule; T.Slt; T.Sle;
  ]

let all_unops = [ T.Neg; T.Not; T.Sext8; T.Sext16; T.Sext32; T.Trunc8; T.Trunc16; T.Trunc32 ]

let gen_spec nvars =
  let open QCheck.Gen in
  let const_gen =
    oneof
      [
        map Int64.of_int (int_range (-4) 260);
        oneofl [ 0L; 1L; -1L; 0xFFL; 0xFFFFL; 0x100L; Int64.max_int; Int64.min_int; 64L; 63L ];
      ]
  in
  let leaf =
    oneof [ map (fun c -> Sconst c) const_gen; map (fun i -> Sread i) (int_range 0 (nvars - 1)) ]
  in
  fix
    (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            (1, leaf);
            ( 4,
              map3
                (fun op a b -> Sbin (op, a, b))
                (oneofl all_binops) (self (n / 2)) (self (n / 2)) );
            (2, map2 (fun op a -> Sun (op, a)) (oneofl all_unops) (self (n - 1)));
            ( 1,
              map3 (fun c t e -> Site (c, t, e)) (self (n / 3)) (self (n / 3)) (self (n / 3))
            );
          ])
    6

let gen_bytes nvars = QCheck.Gen.(array_size (return nvars) (int_range 0 255))

let arb_spec_and_bytes nvars =
  QCheck.make
    QCheck.Gen.(pair (gen_spec nvars) (gen_bytes nvars))

let prop_simplifier_sound =
  QCheck.Test.make ~count:2000 ~name:"expr simplifier agrees with reference semantics"
    (arb_spec_and_bytes 4)
    (fun (spec, bytes) ->
      let lookup i = bytes.(i) in
      Int64.equal (Expr.eval lookup (build spec)) (ref_eval lookup spec))

let prop_lognot_negates =
  QCheck.Test.make ~count:1000 ~name:"lognot flips truthiness"
    (arb_spec_and_bytes 3)
    (fun (spec, bytes) ->
      let lookup i = bytes.(i) in
      let e = build spec in
      Bool.equal
        (Semantics.truthy (Expr.eval lookup (Expr.lognot e)))
        (not (Semantics.truthy (Expr.eval lookup e))))

let prop_interval_sound =
  QCheck.Test.make ~count:2000 ~name:"interval analysis bounds concrete evaluation"
    (arb_spec_and_bytes 4)
    (fun (spec, bytes) ->
      let e = build spec in
      let iv = Interval.eval (fun _ -> Interval.make 0L 255L) e in
      Interval.contains iv (Expr.eval (fun i -> bytes.(i)) e))

let prop_interval_point_precision =
  QCheck.Test.make ~count:1000 ~name:"interval on point domains contains the point result"
    (arb_spec_and_bytes 4)
    (fun (spec, bytes) ->
      let e = build spec in
      let iv = Interval.eval (fun i -> Interval.point (Int64.of_int bytes.(i))) e in
      Interval.contains iv (Expr.eval (fun i -> bytes.(i)) e))

let prop_bits_sound =
  QCheck.Test.make ~count:2000 ~name:"possible-bits mask covers every concrete value"
    (arb_spec_and_bytes 4)
    (fun (spec, bytes) ->
      let e = build spec in
      let v = Expr.eval (fun i -> bytes.(i)) e in
      Int64.logand v (Int64.lognot e.Expr.bits) = 0L)

(* DAG-heavy terms: every step combines earlier entries of a pool, so
   subterms are shared and the tree outgrows the DAG. A step's tree is
   at most one node plus three of the largest entry, so up to four steps
   over leaves stay within 121 nodes, under [Expr.walk_bound]; [above]
   takes more steps and then keeps doubling until the tree is past the
   bound, so the evaluators' memo path runs. *)
type dag_step =
  | Dbin of T.binop * int * int
  | Dun of T.unop * int
  | Dite of int * int * int

let gen_dag_term ~above nvars =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun c -> Sconst c) (oneofl [ 0L; 1L; 3L; 0xFFL; 0x100L; -1L; 7L ]);
        map (fun i -> Sread i) (int_range 0 (nvars - 1));
      ]
  in
  let step =
    frequency
      [
        (6, map3 (fun op i j -> Dbin (op, i, j)) (oneofl all_binops) nat nat);
        (1, map2 (fun op i -> Dun (op, i)) (oneofl all_unops) nat);
        (2, map3 (fun c t e -> Dite (c, t, e)) nat nat nat);
      ]
  in
  let* leaves = list_size (int_range 2 4) leaf in
  let+ steps = list_size (if above then int_range 4 7 else int_range 1 4) step in
  let pool = ref (Array.of_list leaves) in
  List.iter
    (fun st ->
      let p = !pool in
      let at i = p.(i mod Array.length p) in
      let next =
        match st with
        | Dbin (op, i, j) -> Sbin (op, at i, at j)
        | Dun (op, i) -> Sun (op, at i)
        | Dite (c, t, e) -> Site (at c, at t, at e)
      in
      pool := Array.append p [| next |])
    steps;
  let top = ref !pool.(Array.length !pool - 1) in
  if above then
    while (build !top).Expr.nodes <= Expr.walk_bound do
      top := Sbin (T.Add, Sbin (T.Mul, !top, Sread 0), Sbin (T.Xor, !top, Sread 1))
    done;
  !top

let arb_dag_and_bytes ~above =
  QCheck.make QCheck.Gen.(pair (gen_dag_term ~above 3) (gen_bytes 3))

let prop_dag_eval above =
  QCheck.Test.make ~count:500
    ~name:
      (Printf.sprintf "expr eval on DAG terms %s the walk bound agrees with reference"
         (if above then "above" else "within"))
    (arb_dag_and_bytes ~above)
    (fun (spec, bytes) ->
      let e = build spec in
      let lookup i = bytes.(i) in
      e.Expr.nodes > Expr.walk_bound = above
      && Int64.equal (Expr.eval lookup e) (ref_eval lookup spec))

(* Tree-walking interval reference: the rules of [Interval.eval] with no
   memo, so memoised evaluation must reproduce it exactly. *)
let rec ref_interval lookup (e : Expr.t) =
  match e.Expr.node with
  | Expr.Const c -> Interval.point c
  | Expr.Read i -> lookup i
  | Expr.Bin (T.Or, x, y) when Int64.logand x.Expr.bits y.Expr.bits = 0L ->
    Interval.binop T.Add (ref_interval lookup x) (ref_interval lookup y)
  | Expr.Bin (op, x, y) ->
    Interval.binop op (ref_interval lookup x) (ref_interval lookup y)
  | Expr.Un (op, x) -> Interval.unop op (ref_interval lookup x)
  | Expr.Ite (c, t, f) ->
    let ci = ref_interval lookup c in
    if Interval.definitely_true ci then ref_interval lookup t
    else if Interval.definitely_false ci then ref_interval lookup f
    else Interval.hull (ref_interval lookup t) (ref_interval lookup f)

let gen_byte_intervals nvars =
  let open QCheck.Gen in
  array_size (return nvars)
    (map2
       (fun a b -> Interval.make (Int64.of_int (min a b)) (Int64.of_int (max a b)))
       (int_range 0 255) (int_range 0 255))

let prop_dag_interval above =
  QCheck.Test.make ~count:500
    ~name:
      (Printf.sprintf "interval eval on DAG terms %s the walk bound equals the tree walk"
         (if above then "above" else "within"))
    (QCheck.make QCheck.Gen.(pair (gen_dag_term ~above 3) (gen_byte_intervals 3)))
    (fun (spec, domains) ->
      let e = build spec in
      let lookup i = domains.(i) in
      let iv = Interval.eval lookup e and expected = ref_interval lookup e in
      e.Expr.nodes > Expr.walk_bound = above
      && Int64.equal iv.Interval.lo expected.Interval.lo
      && Int64.equal iv.Interval.hi expected.Interval.hi)

(* Cache keys of one path share their smallest ids; the key table must
   still spread them over its buckets. The polymorphic hash puts all
   4000 of these keys in one bucket; a uniform hash averages about two
   per bucket here, with a largest bucket near ten. *)
let test_key_table_spreads_shared_prefixes () =
  let module K = Simplify.Key_table in
  let table = K.create 16 in
  let prefix = List.init 12 (fun i -> 1000 + (3 * i)) in
  for i = 0 to 3999 do
    K.replace table (prefix @ [ 5000 + (i / 7); 90_000 + i ]) i
  done;
  let stats = K.stats table in
  Alcotest.(check int) "every key bound" 4000 stats.Hashtbl.num_bindings;
  Alcotest.(check bool)
    (Printf.sprintf "largest bucket %d over %d buckets" stats.Hashtbl.max_bucket_length
       stats.Hashtbl.num_buckets)
    true
    (stats.Hashtbl.max_bucket_length <= 16)

let test_bits_of_field_composition () =
  (* u16 little-endian read: bits must be exactly 0xFFFF *)
  let u16 = Expr.bin T.Or (Expr.read 0) (Expr.bin T.Shl (Expr.read 1) (Expr.const 8L)) in
  Alcotest.(check int64) "u16 bits" 0xFFFFL u16.Expr.bits;
  let u32 =
    Expr.bin T.Or u16
      (Expr.bin T.Or
         (Expr.bin T.Shl (Expr.read 2) (Expr.const 16L))
         (Expr.bin T.Shl (Expr.read 3) (Expr.const 24L)))
  in
  Alcotest.(check int64) "u32 bits" 0xFFFFFFFFL u32.Expr.bits

let test_solver_u32_magic () =
  (* the tcpdump-style gate: a 4-byte little-endian magic *)
  let solver = Solver.create () in
  let u32 =
    Expr.bin T.Or
      (Expr.bin T.Or (Expr.read 0) (Expr.bin T.Shl (Expr.read 1) (Expr.const 8L)))
      (Expr.bin T.Or
         (Expr.bin T.Shl (Expr.read 2) (Expr.const 16L))
         (Expr.bin T.Shl (Expr.read 3) (Expr.const 24L)))
  in
  (match Solver.check solver [ Expr.bin T.Eq u32 (Expr.const 0xA1B2C3D4L) ] with
   | Solver.Sat model, _ ->
     Alcotest.(check int) "byte 0" 0xD4 (Model.get model 0);
     Alcotest.(check int) "byte 1" 0xC3 (Model.get model 1);
     Alcotest.(check int) "byte 2" 0xB2 (Model.get model 2);
     Alcotest.(check int) "byte 3" 0xA1 (Model.get model 3)
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "u32 magic must be sat");
  match Solver.check solver [ Expr.bin T.Eq u32 (Expr.const 0x1_0000_0000L) ] with
  | Solver.Unsat, _ -> ()
  | (Solver.Sat _ | Solver.Unknown), _ -> Alcotest.fail "33-bit magic must be unsat"

let test_check_assuming_matches_check () =
  let solver = Solver.create () in
  let w = Expr.bin T.Or (Expr.read 0) (Expr.bin T.Shl (Expr.read 1) (Expr.const 8L)) in
  let path = [ Expr.bin T.Ult (Expr.const 3L) w; Expr.bin T.Ult w (Expr.const 600L) ] in
  let hint = Pbse_smt.Model.set (Pbse_smt.Model.set Model.empty 0 10) 1 0 in
  (* hint satisfies path (w = 10); the extra asks for one more loop step *)
  let extra = [ Expr.bin T.Ult (Expr.const 10L) w ] in
  (match Solver.check_assuming solver ~hint ~path extra with
   | Solver.Sat model, _ ->
     Alcotest.(check bool) "model satisfies everything" true
       (Model.satisfies model (path @ extra))
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "expected sat");
  (* contradiction with the path must be unsat, not unknown *)
  match Solver.check_assuming solver ~hint ~path [ Expr.bin T.Ult w (Expr.const 2L) ] with
  | Solver.Unsat, _ -> ()
  | (Solver.Sat _ | Solver.Unknown), _ -> Alcotest.fail "expected unsat"

(* --- solver vs brute force ----------------------------------------------- *)

let brute_force_sat specs =
  let exception Found in
  try
    for a = 0 to 255 do
      for b = 0 to 255 do
        let lookup i = if i = 0 then a else b in
        if List.for_all (fun s -> Semantics.truthy (ref_eval lookup s)) specs then raise Found
      done
    done;
    false
  with Found -> true

let gen_constraints =
  QCheck.Gen.(list_size (int_range 1 4) (gen_spec 2))

let prop_solver_matches_brute_force =
  QCheck.Test.make ~count:300 ~name:"solver agrees with 2-byte brute force"
    (QCheck.make gen_constraints)
    (fun specs ->
      let solver = Solver.create ~budget:400_000 () in
      let exprs = List.map build specs in
      match Solver.check solver exprs with
      | Solver.Sat model, _ ->
        Model.satisfies model exprs && brute_force_sat specs
      | Solver.Unsat, _ -> not (brute_force_sat specs)
      | Solver.Unknown, _ -> QCheck.assume_fail ())

let prop_sat_model_satisfies =
  QCheck.Test.make ~count:300 ~name:"sat models satisfy their query"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 5) (gen_spec 4)))
    (fun specs ->
      let solver = Solver.create () in
      let exprs = List.map build specs in
      match Solver.check solver exprs with
      | Solver.Sat model, _ -> Model.satisfies model exprs
      | (Solver.Unsat | Solver.Unknown), _ -> true)

(* --- deterministic unit tests --------------------------------------------- *)

let check_simpl name expected e =
  Alcotest.(check string) name expected (Expr.to_string e)

let test_simplifications () =
  let x = Expr.read 0 in
  check_simpl "x + 0" "in[0]" (Expr.bin T.Add x Expr.zero);
  check_simpl "x - x" "0" (Expr.bin T.Sub x x);
  check_simpl "x * 0" "0" (Expr.bin T.Mul x Expr.zero);
  check_simpl "x & 0xff is identity on a byte" "in[0]"
    (Expr.bin T.And x (Expr.const 0xFFL));
  check_simpl "x ^ x" "0" (Expr.bin T.Xor x x);
  check_simpl "x == x" "1" (Expr.bin T.Eq x x);
  check_simpl "byte == 300 is false" "0" (Expr.bin T.Eq x (Expr.const 300L));
  check_simpl "byte < 256 is true" "1" (Expr.bin T.Ult x (Expr.const 256L));
  check_simpl "counter chain collapses" "(add in[0] 3)"
    (Expr.bin T.Add (Expr.bin T.Add (Expr.bin T.Add x Expr.one) Expr.one) Expr.one);
  check_simpl "trunc8 of byte" "in[0]" (Expr.un T.Trunc8 x);
  check_simpl "sext8 of small value stays" "(and in[0] 127)"
    (Expr.un T.Sext8 (Expr.bin T.And x (Expr.const 0x7FL)))

let test_hash_consing_shares () =
  let a = Expr.bin T.Add (Expr.read 0) (Expr.const 5L) in
  let b = Expr.bin T.Add (Expr.read 0) (Expr.const 5L) in
  Alcotest.(check bool) "physically shared" true (a == b);
  Alcotest.(check bool) "equal" true (Expr.equal a b)

let test_reads () =
  let e =
    Expr.bin T.Add
      (Expr.bin T.Mul (Expr.read 3) (Expr.read 1))
      (Expr.bin T.Add (Expr.read 3) (Expr.const 9L))
  in
  Alcotest.(check (list int)) "sorted distinct reads" [ 1; 3 ] (Expr.reads e);
  Alcotest.(check int) "max_read" 3 e.Expr.max_read

let test_model_roundtrip () =
  let m = Model.of_string "AB" in
  Alcotest.(check int) "byte 0" 65 (Model.get m 0);
  Alcotest.(check int) "byte 1" 66 (Model.get m 1);
  Alcotest.(check int) "default 0" 0 (Model.get m 5);
  let m2 = Model.set m 1 0x142 in
  Alcotest.(check int) "set masks to byte" 0x42 (Model.get m2 1);
  Alcotest.(check string) "to_bytes" "A\x42\x00" (Bytes.to_string (Model.to_bytes ~size:3 m2))

let test_model_union_prefers_left () =
  let a = Model.set Model.empty 0 1 in
  let b = Model.set (Model.set Model.empty 0 2) 1 3 in
  let u = Model.union a b in
  Alcotest.(check int) "left wins" 1 (Model.get u 0);
  Alcotest.(check int) "right fills" 3 (Model.get u 1)

(* A realistic parser query: a little-endian u16 magic plus a bounded count. *)
let u16le b0 b1 =
  Expr.bin T.Or (Expr.read b0) (Expr.bin T.Shl (Expr.read b1) (Expr.const 8L))

let test_solver_magic_bytes () =
  let solver = Solver.create () in
  let magic = Expr.bin T.Eq (u16le 0 1) (Expr.const 0x4D42L) in
  let count_small = Expr.bin T.Ult (Expr.read 2) (Expr.const 5L) in
  (match Solver.check solver [ magic; count_small ] with
   | Solver.Sat model, _ ->
     Alcotest.(check int) "low byte" 0x42 (Model.get model 0);
     Alcotest.(check int) "high byte" 0x4D (Model.get model 1);
     Alcotest.(check bool) "count" true (Model.get model 2 < 5)
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "expected sat");
  (* contradictory magic *)
  let wrong = Expr.bin T.Eq (u16le 0 1) (Expr.const 0x12345L) in
  match Solver.check solver [ wrong ] with
  | Solver.Unsat, _ -> ()
  | (Solver.Sat _ | Solver.Unknown), _ -> Alcotest.fail "expected unsat"

let test_solver_hint_reuse () =
  let solver = Solver.create () in
  let hint = Model.of_string "\x07" in
  let c = Expr.bin T.Eq (Expr.read 0) (Expr.const 7L) in
  (match Solver.check solver ~hint [ c ] with
   | Solver.Sat model, _ -> Alcotest.(check int) "hint model kept" 7 (Model.get model 0)
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "expected sat");
  Alcotest.(check int) "hint hit counted" 1 (Solver.stats solver).Solver.hint_hits

let test_solver_independence_slicing () =
  let solver = Solver.create () in
  (* two independent groups; each is tiny even though together they span
     four bytes *)
  let g1 = Expr.bin T.Eq (Expr.read 0) (Expr.const 1L) in
  let g2 = Expr.bin T.Eq (u16le 2 3) (Expr.const 0x0102L) in
  match Solver.check solver [ g1; g2 ] with
  | Solver.Sat model, _ ->
    Alcotest.(check int) "group 1" 1 (Model.get model 0);
    Alcotest.(check int) "group 2 low" 2 (Model.get model 2);
    Alcotest.(check int) "group 2 high" 1 (Model.get model 3)
  | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "expected sat"

let test_solver_budget_unknown () =
  (* An 8-byte equality over a product is far beyond a 10-unit budget. *)
  let solver = Solver.create ~budget:10 () in
  let wide =
    let rec sum i acc = if i >= 8 then acc else sum (i + 1) (Expr.bin T.Add acc (Expr.read i)) in
    Expr.bin T.Eq (sum 1 (Expr.read 0)) (Expr.const 900L)
  in
  match Solver.check solver [ wide ] with
  | Solver.Unknown, work ->
    Alcotest.(check bool) "work reported" true (work > 0)
  | (Solver.Sat _ | Solver.Unsat), _ -> Alcotest.fail "expected unknown under tiny budget"

let test_solver_cache_hits () =
  let solver = Solver.create () in
  let c = Expr.bin T.Eq (Expr.read 0) (Expr.const 9L) in
  (* force a non-hint-satisfiable query twice: hint default is byte 0 = 0 *)
  ignore (Solver.check solver [ c ]);
  ignore (Solver.check solver [ c ]);
  Alcotest.(check bool) "cache hit on repeat" true
    ((Solver.stats solver).Solver.cache_hits >= 1)

let test_cache_key_collisions () =
  let a = Expr.bin T.Eq (Expr.read 0) (Expr.const 1L) in
  let b = Expr.bin T.Eq (Expr.read 1) (Expr.const 2L) in
  (* permutations of one constraint set must collide (that is the point
     of sorting), distinct sets must not *)
  Alcotest.(check (list int))
    "order-insensitive" (Simplify.cache_key [ a; b ])
    (Simplify.cache_key [ b; a ]);
  Alcotest.(check bool) "subset gets its own key" true
    (Simplify.cache_key [ a ] <> Simplify.cache_key [ a; b ]);
  Alcotest.(check bool) "different singletons differ" true
    (Simplify.cache_key [ a ] <> Simplify.cache_key [ b ]);
  Alcotest.(check bool) "duplicate constraint changes the key" true
    (Simplify.cache_key [ a; a ] <> Simplify.cache_key [ a ]);
  (* hash consing: a structurally equal rebuild reuses the id, so the
     keys collide across separately constructed conjunctions *)
  let a' = Expr.bin T.Eq (Expr.read 0) (Expr.const 1L) in
  Alcotest.(check (list int))
    "hash-consed rebuild collides" (Simplify.cache_key [ a ])
    (Simplify.cache_key [ a' ])

let test_prefix_reuse_on_extension () =
  let solver = Solver.create () in
  let b0 = Expr.read 0 in
  let gt n = Expr.bin T.Ult (Expr.const (Int64.of_int n)) b0 in
  (* default hint (byte 0 = 0) falsifies every extra, so each query
     reaches the prefix machinery *)
  let p1 = [ gt 3 ] in
  (match Solver.check_assuming solver ~path:p1 [ gt 10 ] with
   | Solver.Sat _, _ -> ()
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "first query must be sat");
  let st = Solver.stats solver in
  Alcotest.(check int) "first query builds its prefix" 1 st.Solver.prefix_builds;
  let hits_before = st.Solver.prefix_hits in
  (* extend the same physical spine by one constraint: the indexed
     prefix is found by identity and only the delta is indexed *)
  let p2 = gt 10 :: p1 in
  (match Solver.check_assuming solver ~path:p2 [ gt 20 ] with
   | Solver.Sat _, _ -> ()
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "second query must be sat");
  let st = Solver.stats solver in
  Alcotest.(check bool) "extension reuses the indexed prefix" true
    (st.Solver.prefix_hits > hits_before);
  Alcotest.(check int) "extension indexes only the delta" 2 st.Solver.prefix_builds;
  (* an exact repeat builds nothing *)
  (match Solver.check_assuming solver ~path:p2 [ gt 30 ] with
   | Solver.Sat _, _ -> ()
   | (Solver.Unsat | Solver.Unknown), _ -> Alcotest.fail "third query must be sat");
  Alcotest.(check int) "exact repeat builds nothing" 2
    (Solver.stats solver).Solver.prefix_builds

let test_solver_unsat_chain () =
  let solver = Solver.create () in
  let a = Expr.bin T.Ult (Expr.read 0) (Expr.const 10L) in
  let b = Expr.bin T.Ult (Expr.const 20L) (Expr.read 0) in
  match Solver.check solver [ a; b ] with
  | Solver.Unsat, _ -> ()
  | (Solver.Sat _ | Solver.Unknown), _ -> Alcotest.fail "expected unsat"

let suite =
  [
    Alcotest.test_case "simplifications" `Quick test_simplifications;
    Alcotest.test_case "hash consing" `Quick test_hash_consing_shares;
    Alcotest.test_case "reads" `Quick test_reads;
    Alcotest.test_case "model roundtrip" `Quick test_model_roundtrip;
    Alcotest.test_case "model union" `Quick test_model_union_prefers_left;
    Alcotest.test_case "solver magic bytes" `Quick test_solver_magic_bytes;
    Alcotest.test_case "solver hint reuse" `Quick test_solver_hint_reuse;
    Alcotest.test_case "solver independence slicing" `Quick test_solver_independence_slicing;
    Alcotest.test_case "solver budget unknown" `Quick test_solver_budget_unknown;
    Alcotest.test_case "solver cache hits" `Quick test_solver_cache_hits;
    Alcotest.test_case "cache key collisions" `Quick test_cache_key_collisions;
    Alcotest.test_case "prefix reuse on extension" `Quick test_prefix_reuse_on_extension;
    Alcotest.test_case "solver unsat chain" `Quick test_solver_unsat_chain;
    Alcotest.test_case "bits of field composition" `Quick test_bits_of_field_composition;
    Alcotest.test_case "solver u32 magic" `Quick test_solver_u32_magic;
    Alcotest.test_case "check_assuming" `Quick test_check_assuming_matches_check;
    Alcotest.test_case "key table spreads shared prefixes" `Quick
      test_key_table_spreads_shared_prefixes;
    QCheck_alcotest.to_alcotest prop_bits_sound;
    QCheck_alcotest.to_alcotest prop_simplifier_sound;
    QCheck_alcotest.to_alcotest prop_lognot_negates;
    QCheck_alcotest.to_alcotest prop_interval_sound;
    QCheck_alcotest.to_alcotest prop_interval_point_precision;
    QCheck_alcotest.to_alcotest (prop_dag_eval false);
    QCheck_alcotest.to_alcotest (prop_dag_eval true);
    QCheck_alcotest.to_alcotest (prop_dag_interval false);
    QCheck_alcotest.to_alcotest (prop_dag_interval true);
    QCheck_alcotest.to_alcotest prop_solver_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_sat_model_satisfies;
  ]
