module Rng = Pbse_util.Rng
module Cfg = Pbse_ir.Cfg

type t = {
  name : string;
  add : State.t -> unit;
  fork : parent:State.t -> State.t -> unit;
  remove : State.t -> unit;
  select : unit -> State.t option;
  touch : State.t -> unit;
  size : unit -> int;
}

(* --- dfs / bfs ------------------------------------------------------------ *)

let stacklike name ~push_front =
  let states = ref [] in
  let count = ref 0 in
  let add st =
    states := (if push_front then st :: !states else !states @ [ st ]);
    incr count
  in
  let remove st =
    let before = List.length !states in
    states := List.filter (fun s -> s.State.id <> st.State.id) !states;
    count := !count - (before - List.length !states)
  in
  {
    name;
    add;
    fork = (fun ~parent:_ child -> add child);
    remove;
    select = (fun () -> match !states with [] -> None | st :: _ -> Some st);
    touch = ignore;
    size = (fun () -> !count);
  }

let dfs () = stacklike "dfs" ~push_front:true

(* BFS appends both new and forked states, selecting the oldest. The
   quadratic [@] append is avoided with a two-list queue. *)
let bfs () =
  let front = ref [] and back = ref [] in
  let count = ref 0 in
  let add st =
    back := st :: !back;
    incr count
  in
  let rec head () =
    match !front with
    | st :: _ -> Some st
    | [] ->
      if !back = [] then None
      else begin
        front := List.rev !back;
        back := [];
        head ()
      end
  in
  let remove st =
    let filter l = List.filter (fun s -> s.State.id <> st.State.id) l in
    let before = List.length !front + List.length !back in
    front := filter !front;
    back := filter !back;
    count := !count - (before - (List.length !front + List.length !back))
  in
  {
    name = "bfs";
    add;
    fork = (fun ~parent:_ child -> add child);
    remove;
    select = head;
    touch = ignore;
    size = (fun () -> !count);
  }

(* --- random-state --------------------------------------------------------- *)

(* Dynamic array with swap-removal for O(1) uniform selection. *)
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

let random_state rng =
  let p = pool_create () in
  {
    name = "random-state";
    add = pool_add p;
    fork = (fun ~parent:_ child -> pool_add p child);
    remove = pool_remove p;
    select = (fun () -> if p.len = 0 then None else Some (pool_get p (Rng.int rng p.len)));
    touch = ignore;
    size = (fun () -> p.len);
  }

(* --- random-path ----------------------------------------------------------- *)

(* KLEE's PTree: leaves hold states, internal nodes remember forks.
   Selection walks from a root picking a uniformly random live child, so
   deep subtrees (loops) don't dominate. [live] counts live leaves below. *)
type node = {
  mutable kind : node_kind;
  mutable live : int;
  mutable up : node option;
}

and node_kind =
  | Leaf of State.t
  | Branch of node * node
  | Dead

let no_root = { kind = Dead; live = 0; up = None }

(* [bump] returns the root above [node], so [remove] can tell when a
   whole tree has died. *)
let rec bump node delta =
  node.live <- node.live + delta;
  match node.up with Some parent -> bump parent delta | None -> node

let rec walk rng node =
  match node.kind with
  | Leaf st -> Some st
  | Dead -> None
  | Branch (l, r) ->
    if l.live = 0 then walk rng r
    else if r.live = 0 then walk rng l
    else if Rng.bool rng then walk rng l
    else walk rng r

(* Roots live in a growable array, oldest first. A dead root is never
   revived, so dead roots are dropped by one stable compaction at the
   next [select]; the draw then indexes the live roots newest first,
   the order the roots were always drawn in. *)
let random_path rng =
  let roots = ref (Array.make 16 no_root) in
  let nroots = ref 0 in
  let dead_roots = ref 0 in
  let by_state : (int, node) Hashtbl.t = Hashtbl.create 256 in
  let count = ref 0 in
  let add st =
    let leaf = { kind = Leaf st; live = 1; up = None } in
    Hashtbl.replace by_state st.State.id leaf;
    if !nroots = Array.length !roots then begin
      let bigger = Array.make (2 * !nroots) no_root in
      Array.blit !roots 0 bigger 0 !nroots;
      roots := bigger
    end;
    !roots.(!nroots) <- leaf;
    incr nroots;
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
      (* the branch node itself now holds two leaves but carried live=1 *)
      ignore (bump node 1);
      incr count
  in
  let remove st =
    match Hashtbl.find_opt by_state st.State.id with
    | None -> ()
    | Some node ->
      Hashtbl.remove by_state st.State.id;
      node.kind <- Dead;
      if (bump node (-1)).live = 0 then incr dead_roots;
      decr count
  in
  let compact () =
    let arr = !roots in
    let kept = ref 0 in
    for i = 0 to !nroots - 1 do
      if arr.(i).live > 0 then begin
        arr.(!kept) <- arr.(i);
        incr kept
      end
    done;
    Array.fill arr !kept (!nroots - !kept) no_root;
    nroots := !kept;
    dead_roots := 0
  in
  let select () =
    if !dead_roots > 0 then compact ();
    if !nroots = 0 then None
    else walk rng !roots.(!nroots - 1 - Rng.int rng !nroots)
  in
  {
    name = "random-path";
    add;
    fork;
    remove;
    select;
    touch = ignore;
    size = (fun () -> !count);
  }

(* --- weighted heuristics (covnew, md2u) ------------------------------------ *)

(* Distance-to-uncovered map, refreshed lazily as coverage grows. *)
type dmap = {
  cfg : Cfg.t;
  coverage : Coverage.t;
  mutable dist : int array;
  mutable at_version : int;
}

let dmap_create cfg coverage =
  { cfg; coverage; dist = [||]; at_version = -1 }

(* Recompute the map once coverage has grown past the last refresh by
   more than 8 blocks; true when it did. *)
let dmap_refresh d =
  if d.at_version < 0 || Coverage.version d.coverage > d.at_version + 8 then begin
    d.dist <- Cfg.distances_to d.cfg ~targets:(fun g -> not (Coverage.is_covered d.coverage g));
    d.at_version <- Coverage.version d.coverage;
    true
  end
  else false

let dmap_dist d gid = if Array.length d.dist = 0 then max_int else d.dist.(gid)

(* The weighted selection table. Slots are the pool in insertion order
   with swap-removal. Each slot caches its state's weight, flagged
   stale when it may have changed, and [cum] holds the left-to-right
   prefix sums of [weight + 1e-9] as of the last rebuild; only the
   suffix from [dirty], the lowest slot whose sum is out of date, is
   ever recomputed.

   Removals are deferred: a removed state only has its [dead] flag set,
   so between rebuilds the slots are exactly the layout [cum] was summed
   over and a draw landing on a dead slot is a miss. The swap-removes
   are replayed in their original order at the next rebuild (or before
   an append), which leaves the same pool order an immediate swap-remove
   would have. *)
type table = {
  mutable slots : State.t option array;
  mutable weight : float array;
  mutable cum : float array;
  mutable stale : Bytes.t;
  mutable dead : Bytes.t;
  mutable len : int; (* occupied slots, dead ones included *)
  mutable live : int;
  mutable removed : State.t list; (* deferred removals, newest first *)
  mutable dirty : int;
  index : (int, int) Hashtbl.t; (* state id -> slot, until replayed *)
}

let table_create () =
  {
    slots = Array.make 64 None;
    weight = Array.make 64 0.0;
    cum = Array.make 64 0.0;
    stale = Bytes.make 64 '\000';
    dead = Bytes.make 64 '\000';
    len = 0;
    live = 0;
    removed = [];
    dirty = 0;
    index = Hashtbl.create 64;
  }

let mark_stale t slot =
  Bytes.unsafe_set t.stale slot '\001';
  if slot < t.dirty then t.dirty <- slot

let is_dead t slot = Bytes.unsafe_get t.dead slot <> '\000'

(* Swap-remove [st], carrying the last slot's state, cached weight and
   flags into the hole. *)
let table_swap_remove t st =
  let slot = Hashtbl.find t.index st.State.id in
  Hashtbl.remove t.index st.State.id;
  let last = t.len - 1 in
  if slot <> last then begin
    (match t.slots.(last) with
     | Some moved -> Hashtbl.replace t.index moved.State.id slot
     | None -> assert false);
    t.slots.(slot) <- t.slots.(last);
    t.weight.(slot) <- t.weight.(last);
    Bytes.set t.stale slot (Bytes.get t.stale last);
    Bytes.set t.dead slot (Bytes.get t.dead last);
    if slot < t.dirty then t.dirty <- slot
  end;
  t.slots.(last) <- None;
  Bytes.set t.dead last '\000';
  t.len <- last

let table_flush t =
  match t.removed with
  | [] -> ()
  | removed ->
    t.removed <- [];
    List.iter (table_swap_remove t) (List.rev removed)

let table_add t st =
  table_flush t;
  let cap = Array.length t.slots in
  if t.len = cap then begin
    let grow a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    let grow_bytes a =
      let b = Bytes.make (2 * cap) '\000' in
      Bytes.blit a 0 b 0 cap;
      b
    in
    t.slots <- grow t.slots None;
    t.weight <- grow t.weight 0.0;
    t.cum <- grow t.cum 0.0;
    t.stale <- grow_bytes t.stale;
    t.dead <- grow_bytes t.dead
  end;
  t.slots.(t.len) <- Some st;
  Hashtbl.replace t.index st.State.id t.len;
  mark_stale t t.len;
  t.len <- t.len + 1;
  t.live <- t.live + 1

let table_remove t st =
  match Hashtbl.find_opt t.index st.State.id with
  | Some slot when not (is_dead t slot) ->
    Bytes.set t.dead slot '\001';
    t.removed <- st :: t.removed;
    t.live <- t.live - 1
  | Some _ | None -> ()

let table_touch t st =
  match Hashtbl.find_opt t.index st.State.id with
  | Some slot when not (is_dead t slot) -> mark_stale t slot
  | Some _ | None -> ()

(* The weight of a state depends on its location, its [fresh_cover]
   flag and the distance map. The map changes only here, and a state's
   fields change only while the engine runs it — after [select] returned
   it, which marks it stale ({!touch} for picks made by a sibling
   searcher). So every weight left unmarked since the last rebuild is
   still exact, and the suffix below is the same sequence of float
   additions a full rebuild would perform. *)
let table_rebuild t ~refresh ~weight =
  table_flush t;
  let n = t.len in
  if n > 0 && refresh () then begin
    Bytes.fill t.stale 0 n '\001';
    t.dirty <- 0
  end;
  for i = t.dirty to n - 1 do
    if Bytes.unsafe_get t.stale i <> '\000' then begin
      (match t.slots.(i) with
       | Some st -> t.weight.(i) <- weight st
       | None -> assert false);
      Bytes.unsafe_set t.stale i '\000'
    end;
    let before = if i = 0 then 0.0 else t.cum.(i - 1) in
    t.cum.(i) <- before +. (t.weight.(i) +. 1e-9)
  done;
  t.dirty <- n

(* Selection draws from the table as of the last rebuild. Rebuilds
   happen at the same moments as they always have — the first select
   after an add or fork, every 64th select, and after 8 draws in a row
   land on removed states — so every RNG draw and every pick is the one
   a full per-rebuild recomputation makes. Between rebuilds nothing is
   appended or moved, so [t.len] is the length [cum] was summed over. *)
let weighted name rng cfg coverage ~weight_of =
  let t = table_create () in
  let dmap = dmap_create cfg coverage in
  let refresh () = dmap_refresh dmap in
  let weight st = weight_of st (dmap_dist dmap (Cfg.id cfg st.State.fidx st.State.bidx)) in
  let since_rebuild = ref max_int in
  let rebuild () =
    table_rebuild t ~refresh ~weight;
    since_rebuild := 0
  in
  let select () =
    if t.live = 0 then None
    else begin
      if !since_rebuild >= 64 then rebuild ();
      incr since_rebuild;
      let n = t.len in
      let total = t.cum.(n - 1) in
      let picked = ref (-1) and misses = ref 0 in
      while !picked < 0 && !misses < 8 do
        let r = Rng.float rng total in
        (* binary search for the first cumulative weight > r *)
        let lo = ref 0 and hi = ref (n - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if t.cum.(mid) > r then hi := mid else lo := mid + 1
        done;
        if is_dead t !lo then incr misses else picked := !lo
      done;
      if !picked < 0 then begin
        rebuild ();
        picked := Rng.int rng t.len
      end;
      (* the engine runs what we return: its weight must be re-read *)
      mark_stale t !picked;
      t.slots.(!picked)
    end
  in
  let add st =
    table_add t st;
    since_rebuild := max_int
  in
  {
    name;
    add;
    fork = (fun ~parent:_ child -> add child);
    remove = table_remove t;
    select;
    touch = table_touch t;
    size = (fun () -> t.live);
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

(* --- composition ------------------------------------------------------------ *)

let interleave name subs =
  (match subs with [] -> invalid_arg "Searcher.interleave: no sub-searchers" | _ -> ());
  let subs = Array.of_list subs in
  let turn = ref 0 in
  {
    name;
    add = (fun st -> Array.iter (fun s -> s.add st) subs);
    fork = (fun ~parent child -> Array.iter (fun s -> s.fork ~parent child) subs);
    remove = (fun st -> Array.iter (fun s -> s.remove st) subs);
    select =
      (fun () ->
        let k = !turn mod Array.length subs in
        incr turn;
        let picked = subs.(k).select () in
        (match picked with
         | Some st ->
           (* the others hold the same state: it is about to run *)
           for j = 0 to Array.length subs - 1 do
             if j <> k then subs.(j).touch st
           done
         | None -> ());
        picked);
    touch = (fun st -> Array.iter (fun s -> s.touch st) subs);
    size = (fun () -> subs.(0).size ());
  }

let default rng cfg coverage =
  interleave "default" [ random_path (Rng.split rng); covnew (Rng.split rng) cfg coverage ]

let names = [ "default"; "random-path"; "random-state"; "covnew"; "md2u"; "dfs"; "bfs" ]

let by_name name =
  match name with
  | "dfs" -> Some (fun _rng _cfg _cov -> dfs ())
  | "bfs" -> Some (fun _rng _cfg _cov -> bfs ())
  | "random-state" -> Some (fun rng _cfg _cov -> random_state rng)
  | "random-path" -> Some (fun rng _cfg _cov -> random_path rng)
  | "covnew" -> Some covnew
  | "md2u" -> Some md2u
  | "default" -> Some default
  | _ -> None
