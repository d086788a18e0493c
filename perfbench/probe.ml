(* Outside-in measurement: every figure here is taken around calls into
   the engine's public API, never from inside it. Wall time comes from
   the monotonic clock, CPU time from [Unix.times] (all threads and
   domains of the process), allocation from [Gc.quick_stat], which sums
   every domain that has been joined — so multi-domain figures are read
   after the campaign pool or server has shut down. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type gc = {
  minor : float;
  promoted : float;
  major : float;
  minor_coll : int;
  major_coll : int;
}

let gc () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_words;
    minor_coll = s.Gc.minor_collections;
    major_coll = s.Gc.major_collections;
  }

(* --- host steal -----------------------------------------------------------------

   On a shared host the hypervisor can run someone else on our CPUs; that
   steal time inflates wall time and says nothing about the engine. It is
   read from /proc/stat for the CPUs this process may run on, and reads
   as 0 where there is no /proc. *)

let read_lines path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
        go [])
  with Sys_error _ -> []

let words l = List.filter (( <> ) "") (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l))

(* "0-1", "1" or "0,2-3" from /proc/self/status *)
let allowed_cpus =
  lazy
    (List.concat_map
       (fun l ->
         match words l with
         | [ "Cpus_allowed_list:"; spec ] ->
           List.concat_map
             (fun r ->
               match String.split_on_char '-' r with
               | [ a ] -> [ int_of_string a ]
               | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
               | _ -> [])
             (String.split_on_char ',' spec)
         | _ -> [])
       (read_lines "/proc/self/status"))

(* (stolen, elapsed) ticks summed over the allowed CPUs *)
let cpu_ticks () =
  let cpus = Lazy.force allowed_cpus in
  let cpu_number name =
    if String.length name > 3 && String.sub name 0 3 = "cpu" then
      int_of_string_opt (String.sub name 3 (String.length name - 3))
    else None
  in
  List.fold_left
    (fun (st, el) l ->
      match words l with
      | name :: fields when Option.fold ~none:false ~some:(fun c -> List.mem c cpus) (cpu_number name) ->
        (* user nice system idle iowait irq softirq steal; guest time is
           already inside user *)
        let f = List.filteri (fun i _ -> i < 8) (List.filter_map int_of_string_opt fields) in
        (st + Option.value (List.nth_opt f 7) ~default:0, el + List.fold_left ( + ) 0 f)
      | _ -> (st, el))
    (0, 0) (read_lines "/proc/stat")

(* --- host speed -----------------------------------------------------------------

   The machine's other tenants also change how fast it runs without
   stealing from it: with no steal at all, the same triage-all unit read
   3.7 s and 6.1 s within minutes, and set-up moved with it. So a fixed
   kernel of the benchmark's own, the engine's kind of work (allocation,
   a balanced tree, hashing, a sort), is timed around every unit, and its
   time relative to [reference_kernel_s] says how fast the host runs just
   then. The kernel never changes with the engine, so a change to the
   engine still moves the scaled figures. *)

let reference_kernel () =
  let module M = Map.Make (Int) in
  let st = Random.State.make [| 2026 |] in
  let xs = List.init 20_000 (fun _ -> Random.State.bits st) in
  let m = List.fold_left (fun m x -> M.add x (x land 255) m) M.empty xs in
  let h = Hashtbl.create 4096 in
  List.iter (fun x -> Hashtbl.replace h (x land 0xffff) x) xs;
  let sorted = List.sort Int.compare xs in
  ignore (Sys.opaque_identity (M.cardinal m + Hashtbl.length h + List.length sorted))

(* the kernel's wall time on a 2-vCPU x86-64 VM at its usual speed *)
let reference_kernel_s = 0.020

(* [n] kernel wall times, from a quiescent heap *)
let kernel_walls n =
  Gc.full_major ();
  List.init n (fun _ ->
      let t0 = now () in
      reference_kernel ();
      now () -. t0)

(* words allocated: minor allocations plus direct major allocations
   (promotion moves words, it does not allocate them) *)
let allocated g = g.minor +. g.major -. g.promoted

type cost = {
  wall : float; (* s *)
  cpu_s : float;
  alloc : float; (* words *)
  promoted_w : float;
  minor_gcs : int;
  major_gcs : int;
  top_heap : int; (* the process's top heap words when the call returned *)
  stolen : float; (* s of CPU time the host stole from the allowed CPUs, summed over them *)
}

let measure f =
  let s0 = cpu_ticks () in
  (* start on an empty minor heap: where the call's minor collections
     fall moves the words it promotes, and with them the allocation
     figure, by a few words per million *)
  Gc.minor ();
  let g0 = gc () in
  let c0 = cpu () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let c1 = cpu () in
  let g1 = gc () in
  let s1 = cpu_ticks () in
  let elapsed = snd s1 - snd s0 in
  ( r,
    {
      wall = t1 -. t0;
      cpu_s = c1 -. c0;
      alloc = allocated g1 -. allocated g0;
      promoted_w = g1.promoted -. g0.promoted;
      minor_gcs = g1.minor_coll - g0.minor_coll;
      major_gcs = g1.major_coll - g0.major_coll;
      top_heap = (Gc.quick_stat ()).Gc.top_heap_words;
      (* the elapsed ticks cover every allowed CPU for the whole call *)
      stolen =
        (if elapsed > 0 then
           float_of_int (fst s1 - fst s0)
           /. float_of_int elapsed
           *. float_of_int (List.length (Lazy.force allowed_cpus))
           *. (t1 -. t0)
         else 0.0);
    } )

(* --- spans --------------------------------------------------------------------

   A span brackets one call into a layer. Spans nest through an explicit
   stack, so a span's self time is its duration minus its direct
   children's. Spans live in memory and are summarised when the run
   ends. One tracer belongs to one thread. *)

type frame = { f_name : string; f_start : float; mutable f_child : float }

type span = { name : string; dur : float; self : float }

type tracer = { mutable stack : frame list; mutable spans : span list }

let tracer () = { stack = []; spans = [] }

let span tr name f =
  let fr = { f_name = name; f_start = now (); f_child = 0.0 } in
  tr.stack <- fr :: tr.stack;
  let finish () =
    let dur = now () -. fr.f_start in
    (match tr.stack with
     | _ :: (parent :: _ as rest) ->
       parent.f_child <- parent.f_child +. dur;
       tr.stack <- rest
     | _ -> tr.stack <- []);
    tr.spans <- { name = fr.f_name; dur; self = dur -. fr.f_child } :: tr.spans
  in
  Fun.protect ~finally:finish f

(* [span] when tracing, a plain call otherwise *)
let maybe_span tracer name f = match tracer with Some tr -> span tr name f | None -> f ()

let total tr name =
  List.fold_left (fun acc s -> if s.name = name then acc +. s.dur else acc) 0.0 tr.spans

let self tr name =
  List.fold_left (fun acc s -> if s.name = name then acc +. s.self else acc) 0.0 tr.spans

let durations tr name =
  List.rev (List.filter_map (fun s -> if s.name = name then Some s.dur else None) tr.spans)

(* --- order statistics ------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

(* linear interpolation between closest ranks; [q] in [0, 1] *)
let quantile q xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let maximum xs = List.fold_left Float.max 0.0 xs

(* --- least squares ------------------------------------------------------------

   [fit rows] solves min |y - X b| for rows [(x, y)] through the normal
   equations (no intercept), by Gaussian elimination with partial
   pivoting. Returns the coefficients and the centred R². *)

let fit rows =
  match rows with
  | [] -> ([||], 0.0)
  | (x0, _) :: _ ->
    let k = Array.length x0 in
    let a = Array.make_matrix k (k + 1) 0.0 in
    List.iter
      (fun (x, y) ->
        for i = 0 to k - 1 do
          for j = 0 to k - 1 do
            a.(i).(j) <- a.(i).(j) +. (x.(i) *. x.(j))
          done;
          a.(i).(k) <- a.(i).(k) +. (x.(i) *. y)
        done)
      rows;
    for c = 0 to k - 1 do
      let p = ref c in
      for r = c + 1 to k - 1 do
        if Float.abs a.(r).(c) > Float.abs a.(!p).(c) then p := r
      done;
      let tmp = a.(c) in
      a.(c) <- a.(!p);
      a.(!p) <- tmp;
      if a.(c).(c) <> 0.0 then
        for r = 0 to k - 1 do
          if r <> c then begin
            let f = a.(r).(c) /. a.(c).(c) in
            for j = c to k do
              a.(r).(j) <- a.(r).(j) -. (f *. a.(c).(j))
            done
          end
        done
    done;
    let b = Array.init k (fun i -> if a.(i).(i) = 0.0 then 0.0 else a.(i).(k) /. a.(i).(i)) in
    let predict x =
      let s = ref 0.0 in
      Array.iteri (fun i xi -> s := !s +. (b.(i) *. xi)) x;
      !s
    in
    let n = float_of_int (List.length rows) in
    let mean = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 rows /. n in
    let ss_res, ss_tot =
      List.fold_left
        (fun (r, t) (x, y) ->
          let e = y -. predict x in
          (r +. (e *. e), t +. ((y -. mean) *. (y -. mean))))
        (0.0, 0.0) rows
    in
    (b, if ss_tot > 0.0 then 1.0 -. (ss_res /. ss_tot) else 0.0)

(* [fit] restricted to non-negative coefficients (a cost per unit cannot
   be negative): every subset of the columns is fitted, subsets with a
   negative coefficient are discarded, and the best remaining fit wins.
   Dropped columns get coefficient 0. Exhaustive, so meant for a handful
   of columns. *)
let fit_nonneg rows =
  match rows with
  | [] -> ([||], 0.0)
  | (x0, _) :: _ ->
    let k = Array.length x0 in
    let best = ref (Array.make k 0.0, neg_infinity) in
    for mask = 1 to (1 lsl k) - 1 do
      let cols = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init k Fun.id) in
      let sub = List.map (fun (x, y) -> (Array.of_list (List.map (fun i -> x.(i)) cols), y)) rows in
      let b, r2 = fit sub in
      if Array.for_all (fun c -> c >= 0.0) b && r2 > snd !best then begin
        let full = Array.make k 0.0 in
        List.iteri (fun j i -> full.(i) <- b.(j)) cols;
        best := (full, r2)
      end
    done;
    if snd !best = neg_infinity then (Array.make k 0.0, 0.0) else !best
