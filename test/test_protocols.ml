(* Tests for the message-level protocols (Chord.Protocol and
   Hieras.Hprotocol) on the event simulator: join convergence against the
   oracle fixpoint, lookup correctness, failure healing, message loss and
   ring-table maintenance. *)

module Id = Hashid.Id
module Engine = Simnet.Engine
module CP = Chord.Protocol
module HP = Hieras.Hprotocol

let space = Id.space ~bits:32

let make_world ?(hosts = 24) seed =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts rng in
  let latency a b = Topology.Latency.host_latency lat a b in
  (lat, Engine.create ~latency ~nodes:hosts)

let ids n = Array.init n (fun i -> Id.of_hash space (Printf.sprintf "proto-%d" i))

let oracle n =
  Chord.Network.of_ids ~space ~ids:(ids n) ~hosts:(Array.init n (fun i -> i)) ()

(* rotate a cycle list so it starts at its smallest element, for comparison *)
let canonical cycle =
  match cycle with
  | [] -> []
  | _ ->
      let m = List.fold_left min (List.hd cycle) cycle in
      let rec rot = function
        | x :: rest when x = m -> (x :: rest) @ []
        | x :: rest -> rot (rest @ [ x ])
        | [] -> []
      in
      rot cycle

let expected_ring n =
  canonical (List.sort (fun a b -> Id.compare (ids n).(a) (ids n).(b)) (List.init n (fun i -> i)))

(* --- Chord protocol ---------------------------------------------------------- *)

let build_chord ?(hosts = 24) seed =
  let _, eng = make_world ~hosts seed in
  let p = CP.create (CP.default_config space) eng in
  let id = ids hosts in
  CP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to hosts - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 250.0) (fun () ->
        CP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.run ~until:120_000.0 eng;
  (eng, p)

let test_chord_ring_converges () =
  let n = 24 in
  let _, p = build_chord 1 in
  let ring = canonical (CP.ring_from p 0) in
  Alcotest.(check (list int)) "ring equals oracle order" (expected_ring n) ring

let test_chord_predecessors_converge () =
  let n = 16 in
  let _, p = build_chord ~hosts:n 2 in
  let net = oracle n in
  (* protocol node addr i has oracle index: position of its id *)
  let pos = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace pos (Chord.Network.id net i) i
  done;
  for addr = 0 to n - 1 do
    match CP.predecessor_addr p addr with
    | None -> Alcotest.fail "predecessor unset after convergence"
    | Some paddr ->
        let i = Hashtbl.find pos (CP.node_id p addr) in
        let expect_pred = Chord.Network.id net (Chord.Network.predecessor net i) in
        Alcotest.(check bool) "predecessor id matches oracle" true
          (Id.equal expect_pred (CP.node_id p paddr))
  done

let test_chord_successor_lists () =
  let n = 16 in
  let _, p = build_chord ~hosts:n 3 in
  for addr = 0 to n - 1 do
    let sl = CP.successor_list_addrs p addr in
    Alcotest.(check bool) "non-empty" true (sl <> []);
    Alcotest.(check bool) "bounded" true (List.length sl <= (CP.config p).CP.succ_list_len);
    Alcotest.(check bool) "self not in list" true (not (List.mem addr sl))
  done

let test_chord_lookups_correct () =
  let n = 24 in
  let eng, p = build_chord 4 in
  let net = oracle n in
  let rng = Prng.Rng.create ~seed:5 in
  let ok = ref 0 in
  let total = 100 in
  for _ = 1 to total do
    let key = Id.random space rng in
    let origin = Prng.Rng.int rng n in
    let expect = Chord.Network.id net (Chord.Network.successor_of_key net key) in
    CP.lookup p ~origin ~key (fun r ->
        match r with
        | Some o when Id.equal o.CP.owner_id expect -> incr ok
        | _ -> ())
  done;
  Engine.run ~until:400_000.0 eng;
  Alcotest.(check int) "all lookups correct" total !ok

let test_chord_heals_after_failures () =
  let n = 24 in
  let eng, p = build_chord 6 in
  List.iter (CP.fail_node p) [ 2; 9; 17 ];
  Engine.run ~until:400_000.0 eng;
  let ring = CP.ring_from p 0 in
  Alcotest.(check int) "survivors form a full ring" (n - 3) (List.length ring);
  Alcotest.(check bool) "dead nodes not in ring" true
    (not (List.exists (fun a -> List.mem a [ 2; 9; 17 ]) ring));
  (* lookups still resolve to live successors *)
  let rng = Prng.Rng.create ~seed:7 in
  let answered = ref 0 in
  for _ = 1 to 50 do
    let key = Id.random space rng in
    CP.lookup p ~origin:0 ~key (fun r -> if r <> None then incr answered)
  done;
  Engine.run ~until:900_000.0 eng;
  Alcotest.(check bool) "most lookups answered" true (!answered >= 45)

let test_chord_survives_message_loss () =
  let n = 16 in
  let _, eng = make_world ~hosts:n 8 in
  Engine.set_loss eng ~rate:0.05 ~rng:(Prng.Rng.create ~seed:9);
  let p = CP.create (CP.default_config space) eng in
  let id = ids n in
  CP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to n - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 400.0) (fun () ->
        CP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.run ~until:300_000.0 eng;
  let ring = canonical (CP.ring_from p 0) in
  Alcotest.(check (list int)) "ring converges despite loss" (expected_ring n) ring

let test_chord_rejects_duplicate_addr () =
  let _, eng = make_world 10 in
  let p = CP.create (CP.default_config space) eng in
  CP.spawn p ~addr:0 ~id:(ids 1).(0);
  Alcotest.check_raises "addr reuse" (Invalid_argument "Chord.Protocol: address already in use")
    (fun () -> CP.spawn p ~addr:0 ~id:(ids 1).(0))

let test_chord_single_node_lookup () =
  let _, eng = make_world 11 in
  let p = CP.create (CP.default_config space) eng in
  let id = (ids 1).(0) in
  CP.spawn p ~addr:0 ~id;
  let got = ref None in
  CP.lookup p ~origin:0 ~key:(Id.of_int space 12345) (fun r -> got := r);
  Engine.run ~until:60_000.0 eng;
  match !got with
  | Some o -> Alcotest.(check bool) "owns everything" true (Id.equal o.CP.owner_id id)
  | None -> Alcotest.fail "lookup unanswered"

(* --- HIERAS protocol ------------------------------------------------------------- *)

let build_hieras ?(hosts = 24) ?(depth = 2) ?(landmarks = 3) ?(loss = 0.0) seed =
  let lat, eng = make_world ~hosts seed in
  if loss > 0.0 then Engine.set_loss eng ~rate:loss ~rng:(Prng.Rng.create ~seed:(seed + 1));
  let lm = Binning.Landmark.choose_spread lat ~count:landmarks (Prng.Rng.create ~seed:(seed + 2)) in
  let p = HP.create (HP.default_config space ~depth) eng ~lat ~landmarks:lm in
  let id = ids hosts in
  HP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to hosts - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 400.0) (fun () ->
        HP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.run ~until:200_000.0 eng;
  (lat, eng, p)

let test_hieras_global_ring_converges () =
  let n = 24 in
  let _, _, p = build_hieras 20 in
  Alcotest.(check (list int)) "global ring equals oracle"
    (expected_ring n)
    (canonical (HP.ring_from p 0 ~layer:1))

let test_hieras_layer2_rings_partition () =
  let n = 24 in
  let _, _, p = build_hieras 21 in
  let orders = List.init n (fun i -> HP.order_of p i ~layer:2) in
  let distinct = List.sort_uniq compare orders in
  Alcotest.(check bool) "more than one ring" true (List.length distinct > 1);
  List.iter
    (fun o ->
      let members =
        List.filteri (fun i _ -> List.nth orders i = o) (List.init n (fun i -> i))
      in
      let cycle = HP.ring_from p (List.hd members) ~layer:2 in
      Alcotest.(check (list int)) ("ring " ^ o) (List.sort compare members)
        (List.sort compare cycle))
    distinct

let test_hieras_lookups_correct () =
  let n = 24 in
  let _, eng, p = build_hieras 22 in
  let net = oracle n in
  let rng = Prng.Rng.create ~seed:23 in
  let ok = ref 0 and lower_used = ref 0 in
  let total = 100 in
  for _ = 1 to total do
    let key = Id.random space rng in
    let origin = Prng.Rng.int rng n in
    let expect = Chord.Network.id net (Chord.Network.successor_of_key net key) in
    HP.lookup p ~origin ~key (fun r ->
        match r with
        | Some o ->
            if Id.equal o.HP.owner_id expect then incr ok;
            if o.HP.lower_hops > 0 then incr lower_used
        | None -> ())
  done;
  Engine.run ~until:600_000.0 eng;
  Alcotest.(check int) "all lookups correct" total !ok;
  Alcotest.(check bool) "lower layers actually used" true (!lower_used > total / 4)

let test_hieras_ring_tables_present () =
  let n = 24 in
  let _, _, p = build_hieras 24 in
  let orders = List.sort_uniq compare (List.init n (fun i -> HP.order_of p i ~layer:2)) in
  List.iter
    (fun o ->
      match HP.find_ring_table p (Hieras.Ring_name.make ~layer:2 ~order:o) with
      | None -> Alcotest.fail ("missing ring table for " ^ o)
      | Some (_, rt) ->
          Alcotest.(check bool) "table non-empty" false (Hieras.Ring_table.is_empty rt))
    orders

let test_hieras_depth3 () =
  let n = 20 in
  let _, eng, p = build_hieras ~hosts:n ~depth:3 25 in
  let net = oracle n in
  let rng = Prng.Rng.create ~seed:26 in
  let ok = ref 0 in
  for _ = 1 to 50 do
    let key = Id.random space rng in
    let origin = Prng.Rng.int rng n in
    let expect = Chord.Network.id net (Chord.Network.successor_of_key net key) in
    HP.lookup p ~origin ~key (fun r ->
        match r with Some o when Id.equal o.HP.owner_id expect -> incr ok | _ -> ())
  done;
  Engine.run ~until:600_000.0 eng;
  Alcotest.(check int) "depth-3 lookups correct" 50 !ok;
  (* layer-3 rings nest inside layer-2 rings *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if HP.order_of p i ~layer:3 = HP.order_of p j ~layer:3 then
        Alcotest.(check string) "nesting" (HP.order_of p i ~layer:2) (HP.order_of p j ~layer:2)
    done
  done

let test_hieras_heals_after_failures () =
  let n = 24 in
  let _, eng, p = build_hieras 27 in
  List.iter (HP.fail_node p) [ 3; 11; 19 ];
  Engine.run ~until:700_000.0 eng;
  let ring = HP.ring_from p 0 ~layer:1 in
  Alcotest.(check int) "global ring heals" (n - 3) (List.length ring);
  (* layer-2 rings heal too: every live node's layer-2 cycle contains only
     live nodes of its order *)
  let live = HP.live_members p in
  List.iter
    (fun a ->
      let cycle = HP.ring_from p a ~layer:2 in
      List.iter
        (fun m ->
          Alcotest.(check bool) "cycle members alive" true (List.mem m live);
          Alcotest.(check string) "same order" (HP.order_of p a ~layer:2)
            (HP.order_of p m ~layer:2))
        cycle)
    live

let test_hieras_ring_table_failure_recovery () =
  let n = 24 in
  let _, eng, p = build_hieras 28 in
  (* kill one recorded extreme of some ring; the manager's duty cycle must
     expunge it from the table *)
  let orders = List.sort_uniq compare (List.init n (fun i -> HP.order_of p i ~layer:2)) in
  let victim_order =
    List.find (fun o -> List.length (List.filter (fun i -> HP.order_of p i ~layer:2 = o) (List.init n (fun i -> i))) >= 3) orders
  in
  let rn = Hieras.Ring_name.make ~layer:2 ~order:victim_order in
  let victim =
    match HP.find_ring_table p rn with
    | Some (_, rt) -> (
        match Hieras.Ring_table.any_member rt with
        | Some e -> e.Hieras.Ring_table.node
        | None -> Alcotest.fail "empty table")
    | None -> Alcotest.fail "table missing"
  in
  HP.fail_node p victim;
  Engine.run ~until:800_000.0 eng;
  (match HP.find_ring_table p rn with
  | Some (_, rt) ->
      Alcotest.(check bool) "victim expunged" true
        (not (List.exists (fun e -> e.Hieras.Ring_table.node = victim) (Hieras.Ring_table.entries rt)));
      Alcotest.(check bool) "table refilled" false (Hieras.Ring_table.is_empty rt)
  | None -> Alcotest.fail "table lost")

let test_hieras_ring_table_replication () =
  let n = 24 in
  let _, eng, p = build_hieras 40 in
  (* replicas appear after a few duty cycles *)
  let replicas_exist =
    List.exists (fun a -> HP.replica_ring_tables p a <> []) (HP.live_members p)
  in
  Alcotest.(check bool) "replicas pushed" true replicas_exist;
  (* kill a manager that stores at least one table; its tables must reappear
     elsewhere (replica promotion or ring_refresh recreation) *)
  let manager =
    List.find (fun a -> a <> 0 && HP.stored_ring_tables p a <> []) (HP.live_members p)
  in
  let lost = List.map Hieras.Ring_table.name (HP.stored_ring_tables p manager) in
  HP.fail_node p manager;
  Engine.run ~until:900_000.0 eng;
  List.iter
    (fun rname ->
      (* only rings that still have live members must recover their table *)
      let order = Hieras.Ring_name.order rname in
      let still_populated =
        List.exists
          (fun a -> HP.order_of p a ~layer:(Hieras.Ring_name.layer rname) = order)
          (HP.live_members p)
      in
      if still_populated then
        match HP.find_ring_table p rname with
        | Some (holder, rt) ->
            Alcotest.(check bool) "recovered table non-empty" false
              (Hieras.Ring_table.is_empty rt);
            Alcotest.(check bool) "held by a live node" true
              (List.mem holder (HP.live_members p))
        | None -> Alcotest.fail ("table lost for ring " ^ Hieras.Ring_name.to_string rname))
    lost;
  ignore n

let test_hieras_survives_message_loss () =
  let n = 16 in
  let _, eng, p = build_hieras ~hosts:n ~loss:0.03 29 in
  Engine.run ~until:400_000.0 eng;
  Alcotest.(check (list int)) "global ring converges despite loss" (expected_ring n)
    (canonical (HP.ring_from p 0 ~layer:1))

let test_hieras_concurrent_joins_unify_rings () =
  (* all nodes join nearly simultaneously: the ring-refresh duty must merge
     the private rings that stale ring tables produce *)
  let n = 16 in
  let lat, eng = make_world ~hosts:n 30 in
  let lm = Binning.Landmark.choose_spread lat ~count:3 (Prng.Rng.create ~seed:31) in
  let p = HP.create (HP.default_config space ~depth:2) eng ~lat ~landmarks:lm in
  let id = ids n in
  HP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to n - 1 do
    Engine.schedule eng ~delay:(10.0 +. float_of_int i) (fun () ->
        HP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.run ~until:300_000.0 eng;
  let orders = List.init n (fun i -> HP.order_of p i ~layer:2) in
  List.iter
    (fun o ->
      let members =
        List.filteri (fun i _ -> List.nth orders i = o) (List.init n (fun i -> i))
      in
      let cycle = HP.ring_from p (List.hd members) ~layer:2 in
      Alcotest.(check (list int)) ("unified ring " ^ o) (List.sort compare members)
        (List.sort compare cycle))
    (List.sort_uniq compare orders)

(* --- protocol conformance ----------------------------------------------------
   The analytic networks (Chord.Network, and per-ring restrictions of it) are
   the fixpoint the maintenance machinery is supposed to reach. These tests
   demand byte-for-byte agreement at convergence: every node's successor list
   and every conceptual finger slot of the message-level protocol must equal
   the analytic table built over the same (id, address) population — not just
   "a correct ring", the *same* ring. *)

let oracle_of_members ~succ_list_len idf members =
  let members = Array.of_list members in
  Chord.Network.of_ids ~space ~ids:(Array.map idf members) ~hosts:members ~succ_list_len ()

let oracle_index net ~n addr =
  let rec go i =
    if i >= n then Alcotest.fail (Printf.sprintf "addr %d not in oracle" addr)
    else if Chord.Network.host net i = addr then i
    else go (i + 1)
  in
  go 0

let oracle_succ_addrs net ~n addr =
  Chord.Network.successor_list net (oracle_index net ~n addr)
  |> Array.to_list
  |> List.map (Chord.Network.host net)

let oracle_finger_addrs net ~n addr =
  let ft = Chord.Network.finger_table net (oracle_index net ~n addr) in
  Array.init (Id.bits space) (fun k -> Chord.Network.host net (Chord.Finger_table.finger ft k))

let check_fingers ~what expect got =
  Array.iteri
    (fun k e ->
      match got.(k) with
      | Some a -> Alcotest.(check int) (Printf.sprintf "%s finger %d" what k) e a
      | None -> Alcotest.fail (Printf.sprintf "%s finger %d unset at convergence" what k))
    expect

let test_chord_conforms_to_network () =
  let n = 16 in
  let _, p = build_chord ~hosts:n 33 in
  let sll = (CP.config p).CP.succ_list_len in
  let net = oracle_of_members ~succ_list_len:sll (CP.node_id p) (List.init n (fun i -> i)) in
  Alcotest.(check bool) "detector agrees the ring is converged" true (CP.converged p);
  for addr = 0 to n - 1 do
    let what = Printf.sprintf "node %d" addr in
    Alcotest.(check (list int))
      (what ^ " successor list")
      (oracle_succ_addrs net ~n addr)
      (CP.successor_list_addrs p addr);
    check_fingers ~what (oracle_finger_addrs net ~n addr) (CP.finger_addrs p addr)
  done

let test_hieras_conforms_per_layer () =
  let n = 24 and depth = 2 in
  let _, _, p = build_hieras ~hosts:n ~depth 34 in
  let sll = (HP.config p).HP.ring.CP.succ_list_len in
  Alcotest.(check bool) "all layers converged" true (HP.converged p);
  for layer = 1 to depth do
    (* partition the membership into this layer's rings; layer 1 is the one
       global ring (order_of is undefined there), deeper layers split by
       landmark order *)
    let order_of i = if layer = 1 then "global" else HP.order_of p i ~layer in
    let orders = List.sort_uniq compare (List.init n order_of) in
    List.iter
      (fun o ->
        let members = List.filter (fun i -> order_of i = o) (List.init n (fun i -> i)) in
        let rn = List.length members in
        let net = oracle_of_members ~succ_list_len:sll (HP.node_id p) members in
        List.iter
          (fun addr ->
            let what = Printf.sprintf "layer %d ring %s node %d" layer o addr in
            (* a singleton ring has no analytic successor list (r = n-1 = 0);
               the protocol represents it as a self-loop *)
            let expect_succs =
              if rn = 1 then [ addr ] else oracle_succ_addrs net ~n:rn addr
            in
            Alcotest.(check (list int))
              (what ^ " successor list") expect_succs
              (HP.successor_list_addrs p addr ~layer);
            check_fingers ~what (oracle_finger_addrs net ~n:rn addr)
              (HP.finger_addrs p addr ~layer))
          members)
      orders
  done

let test_conformance_survives_healing () =
  (* kill a few nodes, let maintenance re-converge, then demand the healed
     ring again equals the analytic network over the survivors *)
  let n = 24 in
  let eng, p = build_chord ~hosts:n 35 in
  let dead = [ 4; 13; 21 ] in
  List.iter (CP.fail_node p) dead;
  Engine.run ~until:500_000.0 eng;
  let live = List.filter (fun i -> not (List.mem i dead)) (List.init n (fun i -> i)) in
  let rn = List.length live in
  let net = oracle_of_members ~succ_list_len:(CP.config p).CP.succ_list_len (CP.node_id p) live in
  List.iter
    (fun addr ->
      Alcotest.(check (list int))
        (Printf.sprintf "survivor %d successor list" addr)
        (oracle_succ_addrs net ~n:rn addr)
        (CP.successor_list_addrs p addr))
    live

(* live_members is cached; the cache must follow joins, protocol failures
   and kills/revives made directly on the engine (fault schedules) *)
let test_live_members_cache () =
  let _, eng = make_world ~hosts:6 40 in
  let p = CP.create (CP.default_config space) eng in
  let id = ids 6 in
  CP.spawn p ~addr:0 ~id:id.(0);
  List.iter (fun a -> CP.join p ~addr:a ~id:id.(a) ~bootstrap:0) [ 3; 1 ];
  Alcotest.(check (list int)) "joined, sorted" [ 0; 1; 3 ] (CP.live_members p);
  Engine.kill eng 3;
  Alcotest.(check (list int)) "engine kill" [ 0; 1 ] (CP.live_members p);
  Engine.kill eng 5;
  CP.join p ~addr:2 ~id:id.(2) ~bootstrap:0;
  Alcotest.(check (list int)) "join" [ 0; 1; 2 ] (CP.live_members p);
  Engine.revive eng 3;
  Alcotest.(check (list int)) "engine revive" [ 0; 1; 2; 3 ] (CP.live_members p);
  CP.fail_node p 1;
  Alcotest.(check (list int)) "protocol failure" [ 0; 2; 3 ] (CP.live_members p)

(* --- sliced runs -------------------------------------------------------------- *)

(* Callers advance the engine in [run ~until] slices (the soak's probe loop,
   the benchmark's audits). An event due exactly at a slice boundary is
   re-sequenced behind same-time events queued before it, so slicing is part
   of the event order, and no golden runs sliced. These rings are driven in
   1000 ms slices for 60 s with 1% loss and three crashes at 40 s; the
   constants pin the traffic and final routing state that this order
   produces, whatever the queue's implementation. *)

let slice_ms = 1000.0
let slices = 60

let drive_sliced eng =
  for k = 1 to slices do
    Engine.run ~until:(float_of_int k *. slice_ms) eng
  done

let sliced_world seed =
  let lat, eng = make_world seed in
  Engine.set_loss eng ~rate:0.01 ~rng:(Prng.Rng.create ~seed:(seed + 1));
  (lat, eng)

let fp_peer acc peer = Simnet.Stability.fp_add acc (Option.value peer ~default:(-1))

(* the protocols' own stability fingerprint, recomputed from public state:
   every live node's predecessor, successor list and fingers, address order *)
let state_fp ~live ~pred ~succs ~fingers =
  let open Simnet.Stability in
  List.fold_left
    (fun acc a ->
      let acc = fp_peer (fp_add acc a) (pred a) in
      let acc = fp_add (List.fold_left fp_add acc (succs a)) (-2) in
      Array.fold_left fp_peer acc (fingers a))
    fp_init live

let engine_counts eng =
  [
    ("sent", Engine.sent eng);
    ("delivered", Engine.delivered eng);
    ("timers_fired", Engine.timers_fired eng);
    ("dropped_loss", Engine.dropped_loss eng);
    ("dropped_dead", Engine.dropped_dead eng);
  ]

let check_counts what expected actual =
  List.iter2
    (fun (name, e) (_, a) -> Alcotest.(check int) (what ^ " " ^ name) e a)
    expected actual

let test_chord_sliced_run () =
  let n = 24 in
  let _, eng = sliced_world 31 in
  let p = CP.create (CP.default_config space) eng in
  let id = ids n in
  CP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to n - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 250.0) (fun () ->
        CP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.schedule eng ~delay:40_000.0 (fun () -> List.iter (CP.fail_node p) [ 5; 11; 17 ]);
  drive_sliced eng;
  check_counts "chord"
    [
      ("sent", 32678);
      ("delivered", 32219);
      ("timers_fired", 28191);
      ("dropped_loss", 322);
      ("dropped_dead", 221);
    ]
    (engine_counts eng);
  Alcotest.(check int) "chord fingerprint" 2004833418836208969
    (state_fp ~live:(CP.live_members p) ~pred:(CP.predecessor_addr p)
       ~succs:(CP.successor_list_addrs p) ~fingers:(CP.finger_addrs p))

let test_hieras_sliced_run () =
  let n = 24 in
  let lat, eng = sliced_world 32 in
  let lm = Binning.Landmark.choose_spread lat ~count:3 (Prng.Rng.create ~seed:34) in
  let p = HP.create (HP.default_config space ~depth:2) eng ~lat ~landmarks:lm in
  let id = ids n in
  HP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to n - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 250.0) (fun () ->
        HP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.schedule eng ~delay:40_000.0 (fun () -> List.iter (HP.fail_node p) [ 5; 11; 17 ]);
  drive_sliced eng;
  check_counts "hieras"
    [
      ("sent", 65466);
      ("delivered", 64548);
      ("timers_fired", 58475);
      ("dropped_loss", 700);
      ("dropped_dead", 409);
    ]
    (engine_counts eng);
  List.iter
    (fun (layer, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "hieras layer-%d fingerprint" layer)
        expected
        (state_fp ~live:(HP.live_members p) ~pred:(HP.predecessor_addr p ~layer)
           ~succs:(HP.successor_list_addrs p ~layer) ~fingers:(HP.finger_addrs p ~layer)))
    [ (1, 2004833418836208969); (2, 1757546482681142497) ]

(* The same sliced drive with adaptive backoff on: the interval multiplier
   feeds every maintenance timer's delay, so the traffic, the operation
   count, the multiplier's peak over the slice ends and its final value pin
   the backoff path. *)
let drive_sliced_scale eng scale =
  let peak = ref 1.0 in
  for k = 1 to slices do
    Engine.run ~until:(float_of_int k *. slice_ms) eng;
    peak := Float.max !peak (scale ())
  done;
  !peak

let check_scale what ~peak ~final ~ops (p_peak, p_final, p_ops) =
  Alcotest.(check (float 0.0)) (what ^ " peak interval_scale") peak p_peak;
  Alcotest.(check (float 0.0)) (what ^ " final interval_scale") final p_final;
  Alcotest.(check int) (what ^ " maintenance_ops") ops p_ops

let test_chord_sliced_adaptive () =
  let n = 24 in
  let _, eng = sliced_world 35 in
  let p = CP.create { (CP.default_config space) with adaptive = true } eng in
  let id = ids n in
  CP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to n - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 250.0) (fun () ->
        CP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.schedule eng ~delay:40_000.0 (fun () -> List.iter (CP.fail_node p) [ 5; 11; 17 ]);
  let peak = drive_sliced_scale eng (fun () -> CP.interval_scale p) in
  check_counts "chord adaptive"
    [
      ("sent", 31796);
      ("delivered", 31367);
      ("timers_fired", 27458);
      ("dropped_loss", 306);
      ("dropped_dead", 203);
    ]
    (engine_counts eng);
  check_scale "chord" ~peak:4.0 ~final:1.0 ~ops:24626
    (peak, CP.interval_scale p, CP.maintenance_ops p);
  Alcotest.(check int) "chord adaptive fingerprint" 2004833418836208969
    (state_fp ~live:(CP.live_members p) ~pred:(CP.predecessor_addr p)
       ~succs:(CP.successor_list_addrs p) ~fingers:(CP.finger_addrs p))

let hieras_sliced ~seed ~depth ~adaptive =
  let n = 24 in
  let lat, eng = sliced_world seed in
  let lm = Binning.Landmark.choose_spread lat ~count:3 (Prng.Rng.create ~seed:(seed + 2)) in
  let p =
    HP.create
      { (HP.default_config space ~depth) with ring = { (CP.default_config space) with adaptive } }
      eng ~lat ~landmarks:lm
  in
  let id = ids n in
  HP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to n - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 250.0) (fun () ->
        HP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.schedule eng ~delay:40_000.0 (fun () -> List.iter (HP.fail_node p) [ 5; 11; 17 ]);
  let peak = drive_sliced_scale eng (fun () -> HP.interval_scale p) in
  (eng, p, peak)

let check_layer_fps what p expected =
  List.iter
    (fun (layer, fp) ->
      Alcotest.(check int)
        (Printf.sprintf "%s layer-%d fingerprint" what layer)
        fp
        (state_fp ~live:(HP.live_members p) ~pred:(HP.predecessor_addr p ~layer)
           ~succs:(HP.successor_list_addrs p ~layer) ~fingers:(HP.finger_addrs p ~layer)))
    expected

(* Under 1% loss most seeds never see every HIERAS layer stable at a probe
   within 60 s, so the backoff never engages; seed 238 is one where it does
   (peak 2), which keeps the doubling path pinned. *)
let test_hieras_sliced_adaptive () =
  let eng, p, peak = hieras_sliced ~seed:238 ~depth:2 ~adaptive:true in
  check_counts "hieras adaptive"
    [
      ("sent", 65562);
      ("delivered", 64681);
      ("timers_fired", 58121);
      ("dropped_loss", 679);
      ("dropped_dead", 410);
    ]
    (engine_counts eng);
  check_scale "hieras" ~peak:2.0 ~final:1.0 ~ops:51225
    (peak, HP.interval_scale p, HP.maintenance_ops p);
  check_layer_fps "hieras adaptive" p [ (1, 3335782721469310354); (2, 383545287659321534) ]

let test_hieras_sliced_depth3 () =
  let eng, p, _ = hieras_sliced ~seed:37 ~depth:3 ~adaptive:false in
  check_counts "hieras depth-3"
    [
      ("sent", 97752);
      ("delivered", 96574);
      ("timers_fired", 86787);
      ("dropped_loss", 957);
      ("dropped_dead", 524);
    ]
    (engine_counts eng);
  check_layer_fps "hieras depth-3" p
    [ (1, 2004833418836208969); (2, 1238193117219221239); (3, 722502489793704136) ]

(* --- the overlay view ------------------------------------------------------ *)

module R = Chord.Ring_proto

(* What a protocol instance says about itself through its own calls, for
   comparison with its {!R.overlay}. [fps] is the routing state of every
   layer, by {!state_fp}. *)
type own = {
  eng : Engine.t;
  depth : int;
  join : addr:int -> id:Id.t -> bootstrap:int -> unit;
  fail : int -> unit;
  lookup : origin:int -> key:Id.t -> ((int * Id.t) option -> unit) -> unit;
  is_member : int -> bool;
  node_id : int -> Id.t;
  live : unit -> int list;
  pred : int -> int option;
  succ : int -> int option;
  succs : int -> int list;
  stability : int -> Simnet.Stability.t;
  converged : unit -> bool;
  ops : unit -> int;
  fps : unit -> int list;
}

let chord_own seed =
  let _, eng = sliced_world seed in
  let p = CP.create (CP.default_config space) eng in
  CP.spawn p ~addr:0 ~id:(ids 1).(0);
  let own =
    {
      eng;
      depth = 1;
      join = CP.join p;
      fail = CP.fail_node p;
      lookup =
        (fun ~origin ~key k ->
          CP.lookup p ~origin ~key (fun r ->
              k (Option.map (fun o -> (o.CP.owner_addr, o.CP.owner_id)) r)));
      is_member = CP.is_member p;
      node_id = CP.node_id p;
      live = (fun () -> CP.live_members p);
      pred = CP.predecessor_addr p;
      succ = CP.successor_addr p;
      succs = CP.successor_list_addrs p;
      stability = (fun _ -> CP.stability p);
      converged = (fun () -> CP.converged p);
      ops = (fun () -> CP.maintenance_ops p);
      fps =
        (fun () ->
          [
            state_fp ~live:(CP.live_members p) ~pred:(CP.predecessor_addr p)
              ~succs:(CP.successor_list_addrs p) ~fingers:(CP.finger_addrs p);
          ]);
    }
  in
  (own, CP.overlay p)

let hieras_own seed =
  let depth = 2 in
  let lat, eng = sliced_world seed in
  let lm = Binning.Landmark.choose_spread lat ~count:3 (Prng.Rng.create ~seed:(seed + 2)) in
  let p = HP.create (HP.default_config space ~depth) eng ~lat ~landmarks:lm in
  HP.spawn p ~addr:0 ~id:(ids 1).(0);
  let own =
    {
      eng;
      depth;
      join = HP.join p;
      fail = HP.fail_node p;
      lookup =
        (fun ~origin ~key k ->
          HP.lookup p ~origin ~key (fun r ->
              k (Option.map (fun o -> (o.HP.owner_addr, o.HP.owner_id)) r)));
      is_member = HP.is_member p;
      node_id = HP.node_id p;
      live = (fun () -> HP.live_members p);
      pred = HP.predecessor_addr p ~layer:1;
      succ = HP.successor_addr p ~layer:1;
      succs = HP.successor_list_addrs p ~layer:1;
      stability = (fun layer -> HP.stability p ~layer);
      converged = (fun () -> HP.converged p);
      ops = (fun () -> HP.maintenance_ops p);
      fps =
        (fun () ->
          List.init depth (fun i ->
              let layer = i + 1 in
              state_fp ~live:(HP.live_members p) ~pred:(HP.predecessor_addr p ~layer)
                ~succs:(HP.successor_list_addrs p ~layer) ~fingers:(HP.finger_addrs p ~layer)));
    }
  in
  (own, HP.overlay p)

let check_overlay_fields what (o : own) (ov : R.overlay) =
  Alcotest.(check bool) (what ^ " engine") true (ov.engine == o.eng);
  Alcotest.(check int) (what ^ " depth") o.depth ov.depth;
  let live = o.live () in
  Alcotest.(check (list int)) (what ^ " live_members") live (ov.live_members ());
  List.iter
    (fun a ->
      let at = Printf.sprintf "%s node %d" what a in
      Alcotest.(check bool) (at ^ " is_member") (o.is_member a) (ov.is_member a);
      Alcotest.(check bool) (at ^ " node_id") true (Id.equal (o.node_id a) (ov.node_id a));
      Alcotest.(check (option int)) (at ^ " predecessor") (o.pred a) (ov.predecessor a);
      Alcotest.(check (option int)) (at ^ " successor") (o.succ a) (ov.successor a);
      Alcotest.(check (list int)) (at ^ " successors") (o.succs a) (ov.successors a))
    live;
  for layer = 1 to o.depth do
    Alcotest.(check bool)
      (Printf.sprintf "%s layer-%d stability" what layer)
      true
      (ov.stability ~layer == o.stability layer)
  done;
  Alcotest.(check bool) (what ^ " converged") (o.converged ()) (ov.converged ());
  Alcotest.(check int) (what ^ " maintenance_ops") (o.ops ()) (ov.maintenance_ops ())

(* Twin worlds from one seed, driven in 1000 ms slices with 1% loss: twin A
   joins, crashes and looks up through its overlay, twin B through the
   protocol's own calls. Each lookup therefore runs in a world of its own
   and cannot perturb the other's. Every slice, A's overlay must agree with
   A's own accessors on every live node and both twins must hold the same
   routing state on every layer; at the end the twins' traffic and the
   owners their lookups named must be equal. *)
let overlay_twins (make : int -> own * R.overlay) seed =
  let n = 24 and id = ids 24 in
  let a, ov = make seed and b, _ = make seed in
  let keys = List.init 12 (fun i -> Id.of_hash space (Printf.sprintf "overlay-key-%d" i)) in
  let answers_a = ref [] and answers_b = ref [] in
  let origin live i = List.nth live (i mod List.length live) in
  for i = 1 to n - 1 do
    let delay = float_of_int i *. 250.0 in
    Engine.schedule a.eng ~delay (fun () -> ov.join ~addr:i ~id:id.(i) ~bootstrap:0);
    Engine.schedule b.eng ~delay (fun () -> b.join ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.schedule a.eng ~delay:40_000.0 (fun () -> List.iter ov.fail [ 5; 11; 17 ]);
  Engine.schedule b.eng ~delay:40_000.0 (fun () -> List.iter b.fail [ 5; 11; 17 ]);
  Engine.schedule a.eng ~delay:50_000.0 (fun () ->
      List.iteri
        (fun i key ->
          ov.lookup ~origin:(origin (ov.live_members ()) i) ~key (fun r ->
              answers_a := (i, Option.map (fun (p : R.peer) -> (p.paddr, p.pid)) r) :: !answers_a))
        keys);
  Engine.schedule b.eng ~delay:50_000.0 (fun () ->
      List.iteri
        (fun i key ->
          b.lookup ~origin:(origin (b.live ()) i) ~key (fun r -> answers_b := (i, r) :: !answers_b))
        keys);
  for k = 1 to slices do
    let until = float_of_int k *. slice_ms in
    Engine.run ~until a.eng;
    Engine.run ~until b.eng;
    let what = Printf.sprintf "slice %d" k in
    check_overlay_fields what a ov;
    Alcotest.(check (list int)) (what ^ " twins' routing state") (b.fps ()) (a.fps ())
  done;
  check_counts "twins" (engine_counts b.eng) (engine_counts a.eng);
  let owners answers =
    List.sort compare answers
    |> List.map (fun (i, r) -> (i, Option.map (fun (addr, oid) -> (addr, Id.to_hex oid)) r))
  in
  Alcotest.(check int) "every probe lookup answered" (List.length keys) (List.length !answers_a);
  Alcotest.(check (list (pair int (option (pair int string)))))
    "overlay lookup names the protocol's owner" (owners !answers_b) (owners !answers_a)

let test_chord_overlay () = overlay_twins chord_own 41
let test_hieras_overlay () = overlay_twins hieras_own 42

let test_overlay_stability_range () =
  let out_of_range = Invalid_argument "Ring_proto.stability: layer out of range" in
  List.iter
    (fun (name, (ov : R.overlay)) ->
      List.iter
        (fun layer ->
          Alcotest.check_raises
            (Printf.sprintf "%s layer %d" name layer)
            out_of_range
            (fun () -> ignore (ov.stability ~layer)))
        [ 0; ov.depth + 1 ])
    [ ("chord", snd (chord_own 43)); ("hieras", snd (hieras_own 44)) ]

let () =
  Alcotest.run "protocols"
    [
      ( "chord-protocol",
        [
          Alcotest.test_case "ring converges" `Slow test_chord_ring_converges;
          Alcotest.test_case "predecessors converge" `Slow test_chord_predecessors_converge;
          Alcotest.test_case "successor lists" `Slow test_chord_successor_lists;
          Alcotest.test_case "lookups correct" `Slow test_chord_lookups_correct;
          Alcotest.test_case "heals after failures" `Slow test_chord_heals_after_failures;
          Alcotest.test_case "survives message loss" `Slow test_chord_survives_message_loss;
          Alcotest.test_case "duplicate addr" `Quick test_chord_rejects_duplicate_addr;
          Alcotest.test_case "single node" `Quick test_chord_single_node_lookup;
          Alcotest.test_case "live_members cache" `Quick test_live_members_cache;
        ] );
      ( "hieras-protocol",
        [
          Alcotest.test_case "global ring converges" `Slow test_hieras_global_ring_converges;
          Alcotest.test_case "layer-2 rings partition" `Slow test_hieras_layer2_rings_partition;
          Alcotest.test_case "lookups correct" `Slow test_hieras_lookups_correct;
          Alcotest.test_case "ring tables present" `Slow test_hieras_ring_tables_present;
          Alcotest.test_case "depth 3" `Slow test_hieras_depth3;
          Alcotest.test_case "heals after failures" `Slow test_hieras_heals_after_failures;
          Alcotest.test_case "ring table recovery" `Slow test_hieras_ring_table_failure_recovery;
          Alcotest.test_case "ring table replication" `Slow test_hieras_ring_table_replication;
          Alcotest.test_case "survives message loss" `Slow test_hieras_survives_message_loss;
          Alcotest.test_case "concurrent joins unify" `Slow test_hieras_concurrent_joins_unify_rings;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "chord matches analytic network" `Slow test_chord_conforms_to_network;
          Alcotest.test_case "hieras matches per-layer oracles" `Slow test_hieras_conforms_per_layer;
          Alcotest.test_case "healed ring matches survivor oracle" `Slow
            test_conformance_survives_healing;
        ] );
      ( "sliced-run",
        [
          Alcotest.test_case "chord ring, 1000 ms slices" `Slow test_chord_sliced_run;
          Alcotest.test_case "hieras rings, 1000 ms slices" `Slow test_hieras_sliced_run;
          Alcotest.test_case "chord ring, adaptive backoff" `Slow test_chord_sliced_adaptive;
          Alcotest.test_case "hieras rings, adaptive backoff" `Slow test_hieras_sliced_adaptive;
          Alcotest.test_case "hieras depth 3" `Slow test_hieras_sliced_depth3;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "chord overlay matches protocol" `Slow test_chord_overlay;
          Alcotest.test_case "hieras overlay matches protocol" `Slow test_hieras_overlay;
          Alcotest.test_case "stability layer range" `Quick test_overlay_stability_range;
        ] );
    ]
