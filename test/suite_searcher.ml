open Pbse_exec
module Rng = Pbse_util.Rng

(* Dummy states: the searchers only look at ids, pc fields and flags. *)
let dummy_state id =
  Pbse_exec.State.create ~id ~nregs:1 ~mem:Mem.empty ~model:Pbse_smt.Model.empty ~fidx:0
    ~born:0

(* A small program so heuristic searchers have a CFG and coverage. *)
let cfg_and_coverage () =
  let prog =
    Pbse_lang.Frontend.compile
      "fn main() { var i = 0; while (i < in(0)) { i = i + 1; } if (i > 2) { out(i); } return 0; }"
  in
  let cfg = Pbse_ir.Cfg.build prog in
  (cfg, Coverage.create (Pbse_ir.Cfg.nblocks cfg))

let ids_of_drain searcher =
  (* repeatedly select and remove until empty *)
  let rec go acc =
    match searcher.Searcher.select () with
    | None -> List.rev acc
    | Some st ->
      searcher.Searcher.remove st;
      go (st.State.id :: acc)
  in
  go []

let test_dfs_lifo () =
  let s = Searcher.dfs () in
  List.iter (fun i -> s.Searcher.add (dummy_state i)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "newest first" [ 3; 2; 1 ] (ids_of_drain s)

let test_dfs_fork_goes_deeper () =
  let s = Searcher.dfs () in
  let parent = dummy_state 1 in
  s.Searcher.add parent;
  s.Searcher.fork ~parent (dummy_state 2);
  (match s.Searcher.select () with
   | Some st -> Alcotest.(check int) "child selected first" 2 st.State.id
   | None -> Alcotest.fail "empty");
  Alcotest.(check int) "size" 2 (s.Searcher.size ())

let test_bfs_fifo () =
  let s = Searcher.bfs () in
  List.iter (fun i -> s.Searcher.add (dummy_state i)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (ids_of_drain s)

let test_random_state_selects_live () =
  let rng = Rng.create 5 in
  let s = Searcher.random_state rng in
  let states = List.init 10 dummy_state in
  List.iter s.Searcher.add states;
  let removed = List.filteri (fun i _ -> i mod 2 = 0) states in
  List.iter s.Searcher.remove removed;
  Alcotest.(check int) "size" 5 (s.Searcher.size ());
  for _ = 1 to 100 do
    match s.Searcher.select () with
    | Some st ->
      Alcotest.(check bool) "selected state is live" true (st.State.id mod 2 = 1)
    | None -> Alcotest.fail "empty"
  done

let test_random_path_tree () =
  let rng = Rng.create 7 in
  let s = Searcher.random_path rng in
  let root = dummy_state 0 in
  s.Searcher.add root;
  (* fork a small tree: 0 -> (0, 1), 1 -> (1, 2), 0 -> (0, 3) *)
  s.Searcher.fork ~parent:root (dummy_state 1);
  s.Searcher.fork ~parent:(dummy_state 1) (dummy_state 2);
  s.Searcher.fork ~parent:root (dummy_state 3);
  Alcotest.(check int) "four live states" 4 (s.Searcher.size ());
  let seen = Hashtbl.create 4 in
  for _ = 1 to 200 do
    match s.Searcher.select () with
    | Some st -> Hashtbl.replace seen st.State.id ()
    | None -> Alcotest.fail "empty"
  done;
  Alcotest.(check int) "every leaf reachable" 4 (Hashtbl.length seen);
  (* removing leaves prunes the tree *)
  s.Searcher.remove (dummy_state 2);
  s.Searcher.remove (dummy_state 3);
  Alcotest.(check int) "two left" 2 (s.Searcher.size ());
  for _ = 1 to 50 do
    match s.Searcher.select () with
    | Some st ->
      Alcotest.(check bool) "only live leaves" true
        (st.State.id = 0 || st.State.id = 1)
    | None -> Alcotest.fail "empty"
  done

let test_weighted_searchers_basic () =
  List.iter
    (fun make ->
      let cfg, coverage = cfg_and_coverage () in
      let s = make (Rng.create 3) cfg coverage in
      let states = List.init 20 dummy_state in
      List.iter s.Searcher.add states;
      Alcotest.(check int) "size" 20 (s.Searcher.size ());
      let seen = Hashtbl.create 16 in
      for _ = 1 to 400 do
        match s.Searcher.select () with
        | Some st ->
          Hashtbl.replace seen st.State.id ();
          Alcotest.(check bool) "valid id" true (st.State.id >= 0 && st.State.id < 20)
        | None -> Alcotest.fail "empty"
      done;
      Alcotest.(check bool) "spreads over many states" true (Hashtbl.length seen > 5);
      List.iter s.Searcher.remove states;
      Alcotest.(check int) "drained" 0 (s.Searcher.size ());
      Alcotest.(check bool) "select on empty" true (s.Searcher.select () = None))
    [ Searcher.covnew; Searcher.md2u ]

let test_covnew_prefers_fresh_cover () =
  let cfg, coverage = cfg_and_coverage () in
  let s = Searcher.covnew (Rng.create 11) cfg coverage in
  let stale = List.init 10 dummy_state in
  let fresh = dummy_state 99 in
  fresh.State.fresh_cover <- true;
  List.iter s.Searcher.add stale;
  s.Searcher.add fresh;
  let hits = ref 0 in
  let rounds = 600 in
  for _ = 1 to rounds do
    match s.Searcher.select () with
    | Some st -> if st.State.id = 99 then incr hits
    | None -> Alcotest.fail "empty"
  done;
  (* uniform would give ~1/11 = 55; the 8x boost should give ~4x that *)
  Alcotest.(check bool)
    (Printf.sprintf "boosted state selected often (%d/%d)" !hits rounds)
    true
    (!hits > rounds / 8)

let test_interleave_alternates () =
  let s = Searcher.interleave "both" [ Searcher.dfs (); Searcher.bfs () ] in
  List.iter (fun i -> s.Searcher.add (dummy_state i)) [ 1; 2; 3 ];
  let first = Option.get (s.Searcher.select ()) in
  let second = Option.get (s.Searcher.select ()) in
  Alcotest.(check int) "dfs first: newest" 3 first.State.id;
  Alcotest.(check int) "bfs second: oldest" 1 second.State.id

let test_interleave_rejects_empty () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Searcher.interleave "none" []);
       false
     with Invalid_argument _ -> true)

let test_by_name_covers_names () =
  List.iter
    (fun name ->
      Alcotest.(check bool) ("factory for " ^ name) true (Searcher.by_name name <> None))
    Searcher.names;
  Alcotest.(check bool) "unknown" true (Searcher.by_name "zigzag" = None)

(* --- differential check of the incremental weighted table ------------------

   [Reference] is the full-rebuild implementation the incremental one
   replaced, kept verbatim apart from the [touch] field: every rebuild
   re-reads every state's weight and re-sums the whole pool, and
   random-path re-filters its root list on every select. The property
   drives both with the same random operation sequence over shared
   states and demands the same picks. *)
module Reference = struct
  open Searcher
  module Cfg = Pbse_ir.Cfg

  type pool = {
    mutable arr : State.t option array;
    mutable len : int;
    index : (int, int) Hashtbl.t; (* state id -> slot *)
  }

  let pool_create () = { arr = Array.make 64 None; len = 0; index = Hashtbl.create 64 }

  let pool_add p st =
    if p.len >= Array.length p.arr then begin
      let bigger = Array.make (2 * Array.length p.arr) None in
      Array.blit p.arr 0 bigger 0 p.len;
      p.arr <- bigger
    end;
    p.arr.(p.len) <- Some st;
    Hashtbl.replace p.index st.State.id p.len;
    p.len <- p.len + 1

  let pool_remove p st =
    match Hashtbl.find_opt p.index st.State.id with
    | None -> ()
    | Some slot ->
      Hashtbl.remove p.index st.State.id;
      let last = p.len - 1 in
      (match p.arr.(last) with
       | Some moved when slot <> last ->
         p.arr.(slot) <- Some moved;
         Hashtbl.replace p.index moved.State.id slot
       | Some _ | None -> ());
      p.arr.(last) <- None;
      p.len <- last

  let pool_get p i = match p.arr.(i) with Some st -> st | None -> assert false

  type node = {
    mutable kind : node_kind;
    mutable live : int;
    mutable up : node option;
  }

  and node_kind =
    | Leaf of State.t
    | Branch of node * node
    | Dead

  let random_path rng =
    let roots = ref [] in
    let by_state : (int, node) Hashtbl.t = Hashtbl.create 256 in
    let count = ref 0 in
    let rec bump node delta =
      node.live <- node.live + delta;
      match node.up with Some parent -> bump parent delta | None -> ()
    in
    let add st =
      let leaf = { kind = Leaf st; live = 1; up = None } in
      Hashtbl.replace by_state st.State.id leaf;
      roots := leaf :: !roots;
      incr count
    in
    let fork ~parent child =
      match Hashtbl.find_opt by_state parent.State.id with
      | None -> add child
      | Some node ->
        let left = { kind = Leaf parent; live = 1; up = Some node } in
        let right = { kind = Leaf child; live = 1; up = Some node } in
        node.kind <- Branch (left, right);
        Hashtbl.replace by_state parent.State.id left;
        Hashtbl.replace by_state child.State.id right;
        bump node 1;
        incr count
    in
    let remove st =
      match Hashtbl.find_opt by_state st.State.id with
      | None -> ()
      | Some node ->
        Hashtbl.remove by_state st.State.id;
        node.kind <- Dead;
        bump node (-1);
        decr count
    in
    let select () =
      let live_roots = List.filter (fun n -> n.live > 0) !roots in
      roots := live_roots;
      match live_roots with
      | [] -> None
      | _ ->
        let root = List.nth live_roots (Rng.int rng (List.length live_roots)) in
        let rec walk node =
          match node.kind with
          | Leaf st -> Some st
          | Dead -> None
          | Branch (l, r) ->
            if l.live = 0 then walk r
            else if r.live = 0 then walk l
            else if Rng.bool rng then walk l
            else walk r
        in
        walk root
    in
    { name = "random-path"; add; fork; remove; select; touch = ignore;
      size = (fun () -> !count) }

  type dmap = {
    cfg : Cfg.t;
    coverage : Coverage.t;
    mutable dist : int array;
    mutable at_version : int;
  }

  let dmap_create cfg coverage = { cfg; coverage; dist = [||]; at_version = -1 }

  let dmap_get d gid =
    if d.at_version < 0 || Coverage.version d.coverage > d.at_version + 8 then begin
      d.dist <- Cfg.distances_to d.cfg ~targets:(fun g -> not (Coverage.is_covered d.coverage g));
      d.at_version <- Coverage.version d.coverage
    end;
    if Array.length d.dist = 0 then max_int else d.dist.(gid)

  let weighted name rng cfg coverage ~weight_of =
    let p = pool_create () in
    let dmap = dmap_create cfg coverage in
    let cum = ref [||] in
    let snapshot_states = ref [||] in
    let since_snapshot = ref max_int in
    let rebuild () =
      let n = p.len in
      let states = Array.init n (fun i -> pool_get p i) in
      let weights =
        Array.map
          (fun st ->
            let gid = Cfg.id cfg st.State.fidx st.State.bidx in
            let dist = dmap_get dmap gid in
            weight_of st dist)
          states
      in
      let acc = ref 0.0 in
      let cumulative =
        Array.map
          (fun w ->
            acc := !acc +. (w +. 1e-9);
            !acc)
          weights
      in
      cum := cumulative;
      snapshot_states := states;
      since_snapshot := 0
    in
    let select () =
      if p.len = 0 then None
      else begin
        if !since_snapshot >= 64 || Array.length !snapshot_states = 0 then rebuild ();
        incr since_snapshot;
        let cumulative = !cum and states = !snapshot_states in
        let n = Array.length states in
        if n = 0 then None
        else begin
          let total = cumulative.(n - 1) in
          let rec attempt tries =
            if tries = 0 then begin
              rebuild ();
              if p.len = 0 then None else Some (pool_get p (Rng.int rng p.len))
            end
            else begin
              let r = Rng.float rng total in
              let lo = ref 0 and hi = ref (n - 1) in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if cumulative.(mid) > r then hi := mid else lo := mid + 1
              done;
              let st = states.(!lo) in
              if Hashtbl.mem p.index st.State.id then Some st else attempt (tries - 1)
            end
          in
          attempt 8
        end
      end
    in
    {
      name;
      add =
        (fun st ->
          pool_add p st;
          since_snapshot := max_int);
      fork =
        (fun ~parent:_ child ->
          pool_add p child;
          since_snapshot := max_int);
      remove = pool_remove p;
      select;
      touch = ignore;
      size = (fun () -> p.len);
    }

  let md2u rng cfg coverage =
    let weight_of _st dist =
      if dist = max_int then 1e-6 else 1.0 /. float_of_int (1 + dist)
    in
    weighted "md2u" rng cfg coverage ~weight_of

  let covnew rng cfg coverage =
    let weight_of st dist =
      let base = if dist = max_int then 1e-6 else 1.0 /. float_of_int (1 + dist) in
      if st.State.fresh_cover then 8.0 *. base else base
    in
    weighted "covnew" rng cfg coverage ~weight_of

  let interleave name subs =
    let subs = Array.of_list subs in
    let turn = ref 0 in
    {
      name;
      add = (fun st -> Array.iter (fun s -> s.add st) subs);
      fork = (fun ~parent child -> Array.iter (fun s -> s.fork ~parent child) subs);
      remove = (fun st -> Array.iter (fun s -> s.remove st) subs);
      select =
        (fun () ->
          let s = subs.(!turn mod Array.length subs) in
          incr turn;
          s.select ());
      touch = ignore;
      size = (fun () -> subs.(0).size ());
    }

  let default rng cfg coverage =
    interleave "default" [ random_path (Rng.split rng); covnew (Rng.split rng) cfg coverage ]
end

(* One engine-like operation. States are shared between the two
   searchers under test; only a state a select just returned is ever
   written to, as in the executor and session loops. *)
type op =
  | Add of int (* a new state at this block *)
  | Step of int * bool * int
      (* select, run the pick: move it to a block, set its fresh_cover
         flag, then 0 = keep running, 1 = fork a child, 2 = finish *)
  | Select (* select without running (an undecided verify) *)
  | Remove of int (* drop the k-th live state, wherever it sits *)
  | Fork of int * int (* fork the k-th live state to a block *)
  | Purge of int (* drop all live states but every k-th: forces missed draws *)
  | Cover of int * int (* cover [n] more blocks from an offset: map refreshes *)

let show_op = function
  | Add g -> Printf.sprintf "Add %d" g
  | Step (g, f, o) -> Printf.sprintf "Step(%d,%b,%d)" g f o
  | Select -> "Select"
  | Remove k -> Printf.sprintf "Remove %d" k
  | Fork (k, g) -> Printf.sprintf "Fork(%d,%d)" k g
  | Purge k -> Printf.sprintf "Purge %d" k
  | Cover (o, n) -> Printf.sprintf "Cover(%d,%d)" o n

let diff_cfg =
  lazy
    (let prog =
       match Pbse_targets.Registry.by_name "dwarfdump" with
       | Some t -> Pbse_targets.Registry.program t
       | None -> failwith "dwarfdump target missing"
     in
     Pbse_ir.Cfg.build prog)

let gen_ops nblocks =
  let open QCheck.Gen in
  let block = int_range 0 (nblocks - 1) in
  let op =
    frequency
      [
        (4, map (fun g -> Add g) block);
        (10, map3 (fun g f o -> Step (g, f, o)) block bool (int_range 0 2));
        (2, return Select);
        (2, map (fun k -> Remove k) nat);
        (3, map2 (fun k g -> Fork (k, g)) nat block);
        (1, map (fun k -> Purge k) (int_range 2 12));
        (1, map2 (fun o n -> Cover (o, n)) (int_range 0 (nblocks - 1)) (int_range 1 12));
      ]
  in
  list_size (int_range 50 400) op

(* Replay [ops] against a fresh pair of searchers and return the two
   pick sequences (state ids; -1 for None) plus sizes after every op. *)
let run_differential ~make_new ~make_ref ~seed ops =
  let cfg = Lazy.force diff_cfg in
  let nblocks = Pbse_ir.Cfg.nblocks cfg in
  let coverage = Coverage.create nblocks in
  let fresh = make_new (Rng.create seed) cfg coverage in
  let reference = make_ref (Rng.create seed) cfg coverage in
  let next_id = ref 0 in
  let live = ref [] in
  let state_at g =
    let fidx, bidx = Pbse_ir.Cfg.of_id cfg g in
    let st = dummy_state !next_id in
    incr next_id;
    st.State.fidx <- fidx;
    st.State.bidx <- bidx;
    st
  in
  let both f =
    f fresh;
    f reference
  in
  let drop st =
    live := List.filter (fun s -> s.State.id <> st.State.id) !live;
    both (fun s -> s.Searcher.remove st)
  in
  let nth k = match !live with [] -> None | l -> Some (List.nth l (k mod List.length l)) in
  let trace_new = ref [] and trace_ref = ref [] in
  let select () =
    let a = fresh.Searcher.select () and b = reference.Searcher.select () in
    let id = function Some st -> st.State.id | None -> -1 in
    trace_new := id a :: !trace_new;
    trace_ref := id b :: !trace_ref;
    if id a = id b then a else None
  in
  List.iter
    (fun op ->
      (match op with
       | Add g ->
         let st = state_at g in
         live := st :: !live;
         both (fun s -> s.Searcher.add st)
       | Step (g, flag, outcome) -> (
         match select () with
         | None -> ()
         | Some st ->
           let fidx, bidx = Pbse_ir.Cfg.of_id cfg g in
           st.State.fidx <- fidx;
           st.State.bidx <- bidx;
           st.State.fresh_cover <- flag;
           if outcome = 1 then begin
             let child = state_at g in
             live := child :: !live;
             both (fun s -> s.Searcher.fork ~parent:st child)
           end
           else if outcome = 2 then drop st)
       | Select -> ignore (select ())
       | Remove k -> Option.iter drop (nth k)
       | Fork (k, g) ->
         Option.iter
           (fun parent ->
             let child = state_at g in
             live := child :: !live;
             both (fun s -> s.Searcher.fork ~parent child))
           (nth k)
       | Purge k ->
         List.iteri (fun i st -> if i mod k <> 0 then drop st) !live
       | Cover (offset, n) ->
         for i = 0 to n - 1 do
           ignore (Coverage.cover coverage ((offset + i) mod nblocks))
         done);
      trace_new := (-2 - fresh.Searcher.size ()) :: !trace_new;
      trace_ref := (-2 - reference.Searcher.size ()) :: !trace_ref)
    ops;
  (List.rev !trace_new, List.rev !trace_ref)

let prop_incremental_matches_reference (label, make_new, make_ref) =
  let nblocks = Pbse_ir.Cfg.nblocks (Lazy.force diff_cfg) in
  QCheck.Test.make ~count:150
    ~name:(label ^ ": incremental table picks what a full rebuild picks")
    QCheck.(
      make
        ~print:(fun (seed, ops) ->
          Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map show_op ops)))
        Gen.(pair (int_range 1 1_000_000) (gen_ops nblocks)))
    (fun (seed, ops) ->
      let a, b = run_differential ~make_new ~make_ref ~seed ops in
      a = b)

let differential_props =
  List.map prop_incremental_matches_reference
    [
      ("covnew", Searcher.covnew, Reference.covnew);
      ("md2u", Searcher.md2u, Reference.md2u);
      ("default", Searcher.default, Reference.default);
      ( "random-path",
        (fun rng _ _ -> Searcher.random_path rng),
        fun rng _ _ -> Reference.random_path rng );
    ]

let suite =
  [
    Alcotest.test_case "dfs lifo" `Quick test_dfs_lifo;
    Alcotest.test_case "dfs fork dives" `Quick test_dfs_fork_goes_deeper;
    Alcotest.test_case "bfs fifo" `Quick test_bfs_fifo;
    Alcotest.test_case "random-state live" `Quick test_random_state_selects_live;
    Alcotest.test_case "random-path tree" `Quick test_random_path_tree;
    Alcotest.test_case "weighted searchers" `Quick test_weighted_searchers_basic;
    Alcotest.test_case "covnew boost" `Quick test_covnew_prefers_fresh_cover;
    Alcotest.test_case "interleave alternates" `Quick test_interleave_alternates;
    Alcotest.test_case "interleave rejects empty" `Quick test_interleave_rejects_empty;
    Alcotest.test_case "by_name" `Quick test_by_name_covers_names;
  ]
  @ List.map QCheck_alcotest.to_alcotest differential_props
