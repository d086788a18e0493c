open Pbse_phase
module Bbv = Pbse_concolic.Bbv
module Rng = Pbse_util.Rng

(* --- k-means --------------------------------------------------------------- *)

let vec l = Array.of_list l

let test_kmeans_single_cluster () =
  let vectors = [| vec [ (0, 1.0) ]; vec [ (0, 1.0) ]; vec [ (0, 1.0) ] |] in
  let c = Kmeans.cluster (Rng.create 1) ~k:1 ~dim:1 vectors in
  Alcotest.(check (array int)) "all in cluster 0" [| 0; 0; 0 |] c.Kmeans.assignment;
  Alcotest.(check (float 1e-9)) "zero inertia" 0.0 c.Kmeans.inertia

let test_kmeans_separates_two_groups () =
  let a = vec [ (0, 1.0) ] and b = vec [ (5, 1.0) ] in
  let vectors = [| a; b; a; b; a; b |] in
  let c = Kmeans.cluster (Rng.create 3) ~k:2 ~dim:6 vectors in
  let c0 = c.Kmeans.assignment.(0) in
  let c1 = c.Kmeans.assignment.(1) in
  Alcotest.(check bool) "two distinct clusters" true (c0 <> c1);
  Alcotest.(check (array int)) "alternating assignment" [| c0; c1; c0; c1; c0; c1 |]
    c.Kmeans.assignment;
  Alcotest.(check (float 1e-9)) "perfect separation" 0.0 c.Kmeans.inertia

let test_kmeans_deterministic () =
  let vectors =
    Array.init 20 (fun i -> vec [ (i mod 4, 1.0); (5 + (i mod 3), 0.5) ])
  in
  let c1 = Kmeans.cluster (Rng.create 42) ~k:3 ~dim:8 vectors in
  let c2 = Kmeans.cluster (Rng.create 42) ~k:3 ~dim:8 vectors in
  Alcotest.(check (array int)) "same assignment" c1.Kmeans.assignment c2.Kmeans.assignment

let test_kmeans_rejects_bad_input () =
  let check_raises name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  check_raises "k=0" (fun () -> Kmeans.cluster (Rng.create 1) ~k:0 ~dim:1 [| vec [] |]);
  check_raises "no vectors" (fun () -> Kmeans.cluster (Rng.create 1) ~k:1 ~dim:1 [||]);
  check_raises "dim=0" (fun () -> Kmeans.cluster (Rng.create 1) ~k:1 ~dim:0 [| vec [] |])

let prop_kmeans_assignment_in_range =
  QCheck.Test.make ~count:100 ~name:"kmeans assignments stay in [0, k)"
    QCheck.(make Gen.(triple (int_range 1 6) (int_range 1 30) (int_range 0 10000)))
    (fun (k, n, seed) ->
      let vectors =
        Array.init n (fun i -> vec [ (i mod 5, float_of_int (i mod 7) /. 7.0) ])
      in
      let c = Kmeans.cluster (Rng.create seed) ~k ~dim:5 vectors in
      Array.for_all (fun a -> a >= 0 && a < k) c.Kmeans.assignment)

(* The pre-caching formula: |c|^2 folded over the whole centroid. *)
let uncached_distance2 v centroid =
  let c2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 centroid in
  Array.fold_left
    (fun acc (dim, x) ->
      let c = centroid.(dim) in
      let d = x -. c in
      acc +. (d *. d) -. (c *. c))
    c2 v

let prop_kmeans_cached_norm_bit_identical =
  let gen =
    let open QCheck.Gen in
    let value =
      oneof
        [
          map (fun n -> float_of_int n /. 7.0) (int_range 0 700);
          float_bound_inclusive 3.0;
        ]
    in
    let* dim = int_range 1 64 in
    let* centroid = array_size (return dim) value in
    let+ entries = list_size (int_range 0 dim) (pair (int_range 0 (dim - 1)) value) in
    let v =
      List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) entries |> Array.of_list
    in
    (v, centroid)
  in
  QCheck.Test.make ~count:1000 ~name:"kmeans cached-norm distance is bit-identical"
    (QCheck.make gen)
    (fun (v, centroid) ->
      Int64.equal
        (Int64.bits_of_float (uncached_distance2 v centroid))
        (Int64.bits_of_float
           (Kmeans.distance2_with ~norm2:(Kmeans.norm2 centroid) v centroid)))

(* --- phase division --------------------------------------------------------- *)

(* Craft BBVs imitating two regimes: intervals 0..9 dominated by block 1
   (a loop: the trap), intervals 10..14 spread over distinct blocks. *)
let make_bbv index counts coverage : Bbv.t =
  let counts = List.sort (fun (a, _) (b, _) -> Int.compare a b) counts in
  {
    Bbv.index;
    t_start = index * 100;
    t_end = (index * 100) + 100;
    counts = Array.of_list counts;
    total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts;
    coverage;
  }

let two_regime_bbvs () =
  let looping = List.init 10 (fun i -> make_bbv i [ (1, 90); (2, 10) ] 20) in
  let exploring = List.init 5 (fun i -> make_bbv (10 + i) [ (10 + i, 50) ] (30 + (i * 10))) in
  looping @ exploring

let test_divide_finds_trap () =
  let division = Phase.divide (Rng.create 7) (two_regime_bbvs ()) in
  Alcotest.(check bool) "at least one trap" true (division.Phase.trap_count >= 1);
  (* the looping regime must be a trap phase *)
  let looping_cluster = division.Phase.assignment.(0) in
  let trap_of_looping =
    List.exists
      (fun p -> p.Phase.pid = looping_cluster && p.Phase.trap)
      division.Phase.phases
  in
  Alcotest.(check bool) "looping cluster is a trap" true trap_of_looping

let test_divide_phases_ordered_by_time () =
  let division = Phase.divide (Rng.create 7) (two_regime_bbvs ()) in
  let rec ordered = function
    | a :: (b :: _ as rest) -> a.Phase.first_vtime <= b.Phase.first_vtime && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "ordered" true (ordered division.Phase.phases)

let test_trap_threshold () =
  Alcotest.(check int) "minimum 2" 2 (Phase.trap_run_threshold 10);
  Alcotest.(check int) "5 percent" 10 (Phase.trap_run_threshold 200)

let test_divide_empty_is_one_phase () =
  (* [divide] is total: no BBVs degrades to a single non-trap phase so
     the driver can still schedule everything in one queue *)
  let division = Phase.divide (Rng.create 1) [] in
  Alcotest.(check int) "k" 1 division.Phase.k;
  Alcotest.(check int) "one phase" 1 (List.length division.Phase.phases);
  Alcotest.(check int) "no traps" 0 division.Phase.trap_count;
  (match division.Phase.phases with
   | [ p ] -> Alcotest.(check bool) "not trap" false p.Phase.trap
   | _ -> Alcotest.fail "expected exactly one phase");
  (* every interval maps to the single phase *)
  Alcotest.(check (option int)) "interval mapped" (Some 0)
    (Phase.phase_of_interval division [] 17)

let test_phase_of_interval () =
  let bbvs = two_regime_bbvs () in
  let division = Phase.divide (Rng.create 7) bbvs in
  (match Phase.phase_of_interval division bbvs 0 with
   | Some pid -> Alcotest.(check int) "interval 0 in looping cluster"
                   division.Phase.assignment.(0) pid
   | None -> Alcotest.fail "interval 0 should map");
  (* an unrecorded later interval maps to the nearest earlier one *)
  match Phase.phase_of_interval division bbvs 100 with
  | Some pid ->
    Alcotest.(check int) "nearest earlier" division.Phase.assignment.(14) pid
  | None -> Alcotest.fail "interval 100 should map backwards"

let test_render_strip () =
  let division = Phase.divide (Rng.create 7) (two_regime_bbvs ()) in
  let strip = Phase.render_strip division in
  Alcotest.(check int) "one char per bbv" 15 (String.length strip);
  Alcotest.(check bool) "has uppercase trap letters" true
    (String.exists (fun c -> c >= 'A' && c <= 'Z') strip)

(* The paper's Fig. 4 claim: adding the coverage element finds at least as
   many trap phases as plain BBVs on executions whose coverage stalls
   inside loops. *)
let test_coverage_mode_at_least_as_many_traps () =
  (* loop regime with *stalled* coverage vs exploration with rising
     coverage; the BBV profiles of the two loop bursts are identical so
     plain BBVs merge them with the exploration in-between *)
  let burst1 = List.init 6 (fun i -> make_bbv i [ (1, 80); (2, 20) ] 20) in
  let explore = List.init 3 (fun i -> make_bbv (6 + i) [ (30 + i, 10) ] (40 + (i * 15))) in
  let burst2 = List.init 6 (fun i -> make_bbv (9 + i) [ (1, 80); (2, 20) ] 90) in
  let bbvs = burst1 @ explore @ burst2 in
  let plain = Phase.divide ~mode:Phase.Bbv_only (Rng.create 11) bbvs in
  let augmented = Phase.divide ~mode:Phase.Bbv_with_coverage (Rng.create 11) bbvs in
  Alcotest.(check bool)
    (Printf.sprintf "augmented (%d) >= plain (%d)" augmented.Phase.trap_count
       plain.Phase.trap_count)
    true
    (augmented.Phase.trap_count >= plain.Phase.trap_count)

let suite =
  [
    Alcotest.test_case "kmeans single cluster" `Quick test_kmeans_single_cluster;
    Alcotest.test_case "kmeans separates groups" `Quick test_kmeans_separates_two_groups;
    Alcotest.test_case "kmeans deterministic" `Quick test_kmeans_deterministic;
    Alcotest.test_case "kmeans rejects bad input" `Quick test_kmeans_rejects_bad_input;
    Alcotest.test_case "divide finds trap" `Quick test_divide_finds_trap;
    Alcotest.test_case "phases ordered by time" `Quick test_divide_phases_ordered_by_time;
    Alcotest.test_case "trap threshold" `Quick test_trap_threshold;
    Alcotest.test_case "divide empty is one phase" `Quick
      test_divide_empty_is_one_phase;
    Alcotest.test_case "phase of interval" `Quick test_phase_of_interval;
    Alcotest.test_case "render strip" `Quick test_render_strip;
    Alcotest.test_case "coverage mode finds more traps" `Quick
      test_coverage_mode_at_least_as_many_traps;
    QCheck_alcotest.to_alcotest prop_kmeans_assignment_in_range;
    QCheck_alcotest.to_alcotest prop_kmeans_cached_norm_bit_identical;
  ]
