(* Session-layer tests: strict LRU eviction order in the session store,
   cold-vs-warm campaign identity through the store's campaign memo, and
   determinism of cross-seed seedState sharing. *)

module Driver = Pbse.Driver
module Session = Pbse_session.Session
module Session_store = Pbse_session.Session_store
module Telemetry = Pbse_telemetry.Telemetry
module Report = Pbse_telemetry.Report

let mini_program = Suite_core.mini_program
let pool_seeds = Suite_campaign.pool_seeds

let open_mini seed =
  Session.open_session (mini_program ()) ~seed ~deadline:5_000

let test_store_lru_eviction_order () =
  let registry = Telemetry.Registry.create ~enabled:true () in
  let store : unit Session_store.t =
    Session_store.create ~cap:2 ~registry ()
  in
  let config_fp = Session.config_fingerprint Session.default_config in
  let key label = Session_store.session_key ~target:"mini" ~seed:(Bytes.of_string label) ~config_fp in
  let a, b, c = (key "a", key "b", key "c") in
  Session_store.put_session store a (open_mini (Bytes.of_string "a-seed"));
  Session_store.put_session store b (open_mini (Bytes.of_string "b-seed"));
  Alcotest.(check int) "cap not yet exceeded" 0 (Session_store.evictions store);
  (* touch [a]: it becomes most-recent, so inserting [c] must evict [b] *)
  Alcotest.(check bool) "a is cached" true
    (Option.is_some (Session_store.find_session store a));
  Session_store.put_session store c (open_mini (Bytes.of_string "c-seed"));
  Alcotest.(check int) "one eviction at cap" 1 (Session_store.evictions store);
  Alcotest.(check int) "still at cap" 2 (Session_store.size store);
  Alcotest.(check bool) "b (LRU) was evicted" true
    (Option.is_none (Session_store.find_session store b));
  Alcotest.(check bool) "a survived (touched)" true
    (Option.is_some (Session_store.find_session store a));
  Alcotest.(check bool) "c survived (newest)" true
    (Option.is_some (Session_store.find_session store c));
  (* distinct keys never alias: the config fingerprint is part of the key *)
  let other_fp =
    Session.config_fingerprint
      (Session.with_rng_seed 99 Session.default_config)
  in
  Alcotest.(check bool) "config change changes the key" true
    (Session_store.session_key ~target:"mini" ~seed:(Bytes.of_string "a") ~config_fp
    <> Session_store.session_key ~target:"mini" ~seed:(Bytes.of_string "a")
         ~config_fp:other_fp)

let pool_json_with ?config ?store ~jobs () =
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled false)
    (fun () ->
      let pool =
        Driver.run_pool ?config ?store ~target:"mini" ~jobs (mini_program ())
          ~seeds:(pool_seeds ()) ~deadline:150_000
      in
      ( Report.to_json (Driver.pool_run_report ~meta:[ ("target", "mini") ] pool),
        pool ))

let test_campaign_cold_vs_warm_identical () =
  let store = Session_store.create ~registry:(Telemetry.Registry.create ~enabled:true ()) () in
  let cold, _ = pool_json_with ~store ~jobs:1 () in
  Alcotest.(check int) "cold run hit nothing" 0 (Session_store.hits store);
  Alcotest.(check bool) "cold run populated the store" true
    (Session_store.size store > 0);
  let warm, _ = pool_json_with ~store ~jobs:1 () in
  Alcotest.(check string) "warm report byte-identical to cold" cold warm;
  Alcotest.(check bool) "warm run was served from the store" true
    (Session_store.hits store > 0);
  (* jobs is excluded from the campaign fingerprint: any width may reuse
     any width's campaign (reports are jobs-invariant) *)
  let hits_before = Session_store.hits store in
  let warm4, _ = pool_json_with ~store ~jobs:4 () in
  Alcotest.(check string) "jobs=4 served the same bytes" cold warm4;
  Alcotest.(check bool) "jobs=4 hit the same memo" true
    (Session_store.hits store > hits_before);
  (* a config change misses: no stale campaign can be served *)
  let config = Session.with_rng_seed 7 Session.default_config in
  let other, _ = pool_json_with ~config ~store ~jobs:1 () in
  Alcotest.(check bool) "different config is a different campaign" true
    (other <> warm)

let test_seedstate_sharing_deterministic () =
  (* two slots over the SAME seed at jobs=1: the first session publishes
     every fork point, the second drops them all as shared — and the
     merged campaign must be indistinguishable from the unshared one *)
  let seeds = [ Suite_core.mini_seed (); Suite_core.mini_seed () ] in
  (* counters only record on enabled registries *)
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  let run ~share =
    let config =
      if share then
        Session.with_search
          (fun s -> { s with Session.share_seed_states = true })
          Session.default_config
      else Session.default_config
    in
    Driver.run_pool ~config ~jobs:1 (mini_program ()) ~seeds ~deadline:150_000
  in
  let unshared = run ~share:false in
  let shared = run ~share:true in
  Alcotest.(check bool) "sharing actually fired" true
    (shared.Driver.pool_shared_seedstates > 0);
  Alcotest.(check int) "unshared campaign shares nothing" 0
    unshared.Driver.pool_shared_seedstates;
  Alcotest.(check int) "same merged coverage" unshared.Driver.merged_coverage
    shared.Driver.merged_coverage;
  Alcotest.(check int) "same merged bugs"
    (List.length unshared.Driver.merged_bugs)
    (List.length shared.Driver.merged_bugs);
  (* the duplicated slot drains early once its seedStates are dropped,
     so sharing can only cheapen the campaign, never inflate it *)
  Alcotest.(check bool) "sharing spends no more virtual time" true
    (shared.Driver.pool_spent <= unshared.Driver.pool_spent);
  (* the per-session counter surfaces in the merged pool registry *)
  let counter_total registry =
    List.fold_left
      (fun acc (name, v) ->
        if name = "session.seedstate_shared_hits" then acc + v else acc)
      0
      (Telemetry.Registry.snapshot_counters registry)
  in
  Alcotest.(check bool) "session.seedstate_shared_hits > 0" true
    (counter_total shared.Driver.pool_registry > 0)

let test_share_prefix_hint_roundtrip () =
  (* hint residue exported from a finished session imports into the
     share and round-trips: first writer per fingerprint wins *)
  let share = Session.share_create () in
  Session.share_publish_hints share [ (42, [ (0, 7); (3, 1) ]); (9, []) ];
  Session.share_publish_hints share [ (42, [ (0, 99) ]); (10, [ (1, 2) ]) ];
  let hints = List.sort compare (Session.share_hints share) in
  Alcotest.(check int) "three fingerprints" 3 (List.length hints);
  Alcotest.(check bool) "first writer wins for fp 42" true
    (List.assoc 42 hints = [ (0, 7); (3, 1) ]);
  Alcotest.(check bool) "published/hit stats start at zero" true
    (Session.share_stats share = (0, 0))

let suite =
  [
    Alcotest.test_case "store LRU eviction order" `Quick test_store_lru_eviction_order;
    Alcotest.test_case "cold vs warm campaign byte-identical" `Slow
      test_campaign_cold_vs_warm_identical;
    Alcotest.test_case "seedState sharing deterministic" `Slow
      test_seedstate_sharing_deterministic;
    Alcotest.test_case "share prefix-hint roundtrip" `Quick
      test_share_prefix_hint_roundtrip;
  ]
