(* Tests for the discrete-event simulator: heap ordering, message timing,
   failures, loss and run control. *)

module Heap = Simnet.Event_heap
module Engine = Simnet.Engine

(* --- Event_heap ------------------------------------------------------------ *)

let test_heap_orders_by_time () =
  let h = Heap.create () in
  let fired = ref [] in
  let ev tag () = fired := tag :: !fired in
  Heap.push h ~time:3.0 (ev "c");
  Heap.push h ~time:1.0 (ev "a");
  Heap.push h ~time:2.0 (ev "b");
  let rec drain () =
    match Heap.pop h with
    | Some (_, f) ->
        f ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !fired)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  let fired = ref [] in
  for i = 0 to 9 do
    Heap.push h ~time:5.0 (fun () -> fired := i :: !fired)
  done;
  let rec drain () =
    match Heap.pop h with
    | Some (_, f) ->
        f ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order on ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !fired)

let test_heap_ties_survive_growth () =
  (* 200 equal-time events exceed the initial 64-slot capacity; the FIFO
     tie-break must survive the array reallocation *)
  let h = Heap.create () in
  let fired = ref [] in
  for i = 0 to 199 do
    Heap.push h ~time:1.0 (fun () -> fired := i :: !fired)
  done;
  let rec drain () =
    match Heap.pop h with
    | Some (_, f) ->
        f ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order across growth"
    (List.init 200 (fun i -> i))
    (List.rev !fired)

let test_heap_ties_among_distinct_times () =
  (* ties at two different times, pushed interleaved: global order is by
     time, and within each time by insertion *)
  let h = Heap.create () in
  let fired = ref [] in
  List.iter
    (fun (t, tag) -> Heap.push h ~time:t (fun () -> fired := tag :: !fired))
    [ (2.0, "b0"); (1.0, "a0"); (2.0, "b1"); (1.0, "a1"); (2.0, "b2"); (1.0, "a2") ];
  let rec drain () =
    match Heap.pop h with
    | Some (_, f) ->
        f ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "per-time FIFO"
    [ "a0"; "a1"; "a2"; "b0"; "b1"; "b2" ]
    (List.rev !fired)

let test_heap_ties_across_interleaved_pops () =
  (* popping must not disturb the FIFO order of remaining equal-time events *)
  let h = Heap.create () in
  let fired = ref [] in
  let push i = Heap.push h ~time:7.0 (fun () -> fired := i :: !fired) in
  let pop () = match Heap.pop h with Some (_, f) -> f () | None -> () in
  push 0;
  push 1;
  push 2;
  pop ();
  push 3;
  push 4;
  pop ();
  pop ();
  push 5;
  pop ();
  pop ();
  pop ();
  Alcotest.(check (list int)) "FIFO despite interleaved pops" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !fired)

let test_heap_size () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h ~time:1.0 (fun () -> ());
  Heap.push h ~time:2.0 (fun () -> ());
  Alcotest.(check int) "size 2" 2 (Heap.size h);
  ignore (Heap.pop h);
  Alcotest.(check int) "size 1" 1 (Heap.size h)

let test_heap_growth () =
  let h = Heap.create () in
  let n = 1000 in
  let rng = Prng.Rng.create ~seed:1 in
  let times = Array.init n (fun _ -> Prng.Rng.float rng 100.0) in
  Array.iter (fun t -> Heap.push h ~time:t (fun () -> ())) times;
  let popped = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (t, _) ->
        popped := t :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  let sorted = List.sort compare (Array.to_list times) in
  Alcotest.(check bool) "pops in sorted order" true (List.rev !popped = sorted)

(* Model test: random interleavings of push, take and resequence_min
   against a reference set ordered by (time, seq). Times come from four
   values, so ties are the common case. Each run grows to 4200 pending
   events (past the initial 64 slots and past 4096) and then drains,
   checking pop order, min_time and size after every step. *)
module Ref = Set.Make (struct
  type t = float * int * int (* time, seq, event id *)

  let compare (t1, s1, _) (t2, s2, _) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end)

let heap_model_agrees (seed, push_bias) =
  let rng = Random.State.make [| seed |] in
  let h = Heap.create () in
  let model = ref Ref.empty and pending = ref 0 and next_seq = ref 0 and next_id = ref 0 in
  let fired = ref (-1) and ok = ref true in
  let expect cond = if not cond then ok := false in
  let check_min () =
    expect (Heap.size h = !pending);
    match Ref.min_elt_opt !model with
    | None -> expect (Heap.is_empty h && Heap.min_time h = infinity)
    | Some (t, _, _) -> expect (Heap.min_time h = t)
  in
  let push () =
    let time = float_of_int (Random.State.int rng 4) and id = !next_id in
    incr next_id;
    Heap.push h ~time (fun () -> fired := id);
    model := Ref.add (time, !next_seq, id) !model;
    incr pending;
    incr next_seq
  in
  let take () =
    match Ref.min_elt_opt !model with
    | None -> ()
    | Some ((_, _, id) as e) ->
        (Heap.take h) ();
        expect (!fired = id);
        model := Ref.remove e !model;
        decr pending
  in
  let resequence () =
    match Ref.min_elt_opt !model with
    | None -> ()
    | Some ((t, _, id) as e) ->
        Heap.resequence_min h;
        model := Ref.add (t, !next_seq, id) (Ref.remove e !model);
        incr next_seq
  in
  let step bias =
    let r = Random.State.float rng 1.0 in
    if r < bias then push () else if r < bias +. ((1.0 -. bias) /. 2.0) then take () else resequence ();
    check_min ()
  in
  while !ok && !pending < 4200 do
    step push_bias
  done;
  while !ok && !pending > 0 do
    step 0.3
  done;
  !ok

let test_heap_model =
  QCheck.Test.make ~name:"push/take/resequence_min agree with a (time, seq) model" ~count:12
    QCheck.(pair (int_bound 1_000_000) (float_range 0.55 0.9))
    heap_model_agrees

(* --- Engine ------------------------------------------------------------------ *)

let const_latency l _ _ = l

let test_send_delivery_time () =
  let eng = Engine.create ~latency:(fun a b -> float_of_int (abs (a - b)) *. 10.0) ~nodes:3 in
  let arrival = ref (-1.0) in
  Engine.send eng ~src:0 ~dst:2 (fun () -> arrival := Engine.now eng);
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "arrives at latency" 20.0 !arrival;
  Alcotest.(check int) "sent" 1 (Engine.sent eng);
  Alcotest.(check int) "delivered" 1 (Engine.delivered eng)

let test_send_from_dead_raises () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:2 in
  Engine.kill eng 0;
  Alcotest.check_raises "dead source" (Invalid_argument "Engine.send: source node is dead")
    (fun () -> Engine.send eng ~src:0 ~dst:1 (fun () -> ()))

let test_send_after_revive_delivers () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:2 in
  Engine.kill eng 0;
  Engine.revive eng 0;
  let ran = ref false in
  Engine.send eng ~src:0 ~dst:1 (fun () -> ran := true);
  Engine.run eng;
  Alcotest.(check bool) "revived source can send" true !ran

let test_message_to_dead_dropped () =
  let eng = Engine.create ~latency:(const_latency 5.0) ~nodes:2 in
  let ran = ref false in
  Engine.send eng ~src:0 ~dst:1 (fun () -> ran := true);
  Engine.kill eng 1;
  Engine.run eng;
  Alcotest.(check bool) "not delivered" false !ran;
  Alcotest.(check int) "dropped_dead" 1 (Engine.dropped_dead eng)

let test_kill_midflight () =
  (* a message sent before the kill but arriving after must be dropped;
     revive after arrival does not resurrect it *)
  let eng = Engine.create ~latency:(const_latency 10.0) ~nodes:2 in
  let ran = ref 0 in
  Engine.send eng ~src:0 ~dst:1 (fun () -> incr ran);
  Engine.schedule eng ~delay:5.0 (fun () -> Engine.kill eng 1);
  Engine.schedule eng ~delay:15.0 (fun () -> Engine.revive eng 1);
  Engine.send eng ~src:0 ~dst:1 (fun () -> incr ran);
  Engine.run eng;
  Alcotest.(check int) "both dropped (arrival at t=10, dead 5..15)" 0 !ran

let test_kill_revive_transition_only () =
  (* killing a dead node / reviving a live one are no-ops: no counter
     bumps, no live-count skew — overlapping fault schedules compose *)
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:3 in
  Alcotest.(check int) "all alive" 3 (Engine.live_count eng);
  Engine.revive eng 1;
  Alcotest.(check int) "revive of live is no-op" 0 (Engine.revivals eng);
  Engine.kill eng 1;
  Engine.kill eng 1;
  Engine.kill eng 1;
  Alcotest.(check int) "one death despite three kills" 1 (Engine.deaths eng);
  Alcotest.(check int) "live count once" 2 (Engine.live_count eng);
  Engine.revive eng 1;
  Engine.revive eng 1;
  Alcotest.(check int) "one revival despite two revives" 1 (Engine.revivals eng);
  Alcotest.(check int) "live count restored" 3 (Engine.live_count eng);
  Alcotest.(check bool) "alive again" true (Engine.is_alive eng 1);
  (* conservation: deaths - revivals = nodes - live *)
  Engine.kill eng 0;
  Engine.kill eng 2;
  Alcotest.(check int) "conservation"
    (3 - Engine.live_count eng)
    (Engine.deaths eng - Engine.revivals eng);
  (* double-kill must not double-count messages dropped at a dead node *)
  let eng2 = Engine.create ~latency:(const_latency 5.0) ~nodes:2 in
  Engine.send eng2 ~src:0 ~dst:1 (fun () -> ());
  Engine.kill eng2 1;
  Engine.kill eng2 1;
  Engine.run eng2;
  Alcotest.(check int) "dropped once" 1 (Engine.dropped_dead eng2)

let test_timer_on_dead_node () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  let ran = ref false in
  Engine.timer eng ~node:0 ~delay:10.0 (fun () -> ran := true);
  Engine.kill eng 0;
  Engine.run eng;
  Alcotest.(check bool) "timer dropped" false !ran

let test_schedule_unconditional () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  let ran = ref false in
  Engine.kill eng 0;
  Engine.schedule eng ~delay:1.0 (fun () -> ran := true);
  Engine.run eng;
  Alcotest.(check bool) "god-event fires" true !ran

let test_run_until () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  let fired = ref [] in
  List.iter
    (fun d -> Engine.schedule eng ~delay:d (fun () -> fired := d :: !fired))
    [ 1.0; 5.0; 9.0 ];
  Engine.run ~until:6.0 eng;
  Alcotest.(check (list (float 1e-9))) "only events before 6" [ 1.0; 5.0 ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at boundary" 6.0 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "rest delivered on resume" [ 1.0; 5.0; 9.0 ]
    (List.rev !fired)

let test_run_until_boundary_order () =
  (* A and B are both due at T, A queued first. One run fires them in
     insertion order. A run ~until:T stops in front of A and re-sequences it
     behind B, so the resumed run fires B first: the slice boundary is part
     of the event order. *)
  let fire_order slice =
    let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
    let fired = ref [] in
    Engine.schedule eng ~delay:5.0 (fun () -> fired := "A" :: !fired);
    Engine.schedule eng ~delay:5.0 (fun () -> fired := "B" :: !fired);
    if slice then Engine.run ~until:5.0 eng;
    Engine.run eng;
    List.rev !fired
  in
  Alcotest.(check (list string)) "one run" [ "A"; "B" ] (fire_order false);
  Alcotest.(check (list string)) "sliced at T" [ "B"; "A" ] (fire_order true)

let test_clock_monotonic () =
  let eng = Engine.create ~latency:(const_latency 3.0) ~nodes:2 in
  let times = ref [] in
  let record () = times := Engine.now eng :: !times in
  Engine.schedule eng ~delay:1.0 record;
  Engine.schedule eng ~delay:2.0 (fun () ->
      record ();
      Engine.send eng ~src:0 ~dst:1 record);
  Engine.run eng;
  let l = List.rev !times in
  Alcotest.(check (list (float 1e-9))) "1, 2, then 2+3" [ 1.0; 2.0; 5.0 ] l

let test_message_loss () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:2 in
  Engine.set_loss eng ~rate:0.5 ~rng:(Prng.Rng.create ~seed:5);
  let delivered = ref 0 in
  for _ = 1 to 1000 do
    Engine.send eng ~src:0 ~dst:1 (fun () -> incr delivered)
  done;
  Engine.run eng;
  Alcotest.(check int) "accounting adds up" 1000 (!delivered + Engine.dropped_loss eng);
  Alcotest.(check bool) "roughly half lost" true
    (Engine.dropped_loss eng > 400 && Engine.dropped_loss eng < 600)

let test_loss_validation () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  Alcotest.check_raises "rate 1" (Invalid_argument "Engine.set_loss: rate must be in [0, 1)")
    (fun () -> Engine.set_loss eng ~rate:1.0 ~rng:(Prng.Rng.create ~seed:1))

let test_run_until_quiet_guard () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  (* a self-perpetuating timer chain *)
  let rec tick () = Engine.timer eng ~node:0 ~delay:1.0 tick in
  tick ();
  match Engine.run_until_quiet ~max_events:100 eng with
  | () -> Alcotest.fail "should have detected livelock"
  | exception Failure _ -> ()

let test_cascading_sends () =
  (* a relay chain: 0 -> 1 -> 2 -> 3, accumulating latency *)
  let eng = Engine.create ~latency:(const_latency 2.0) ~nodes:4 in
  let final = ref (-1.0) in
  let rec relay n () = if n < 3 then Engine.send eng ~src:n ~dst:(n + 1) (relay (n + 1)) else final := Engine.now eng in
  Engine.send eng ~src:0 ~dst:1 (relay 1);
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "3 hops x 2ms" 6.0 !final

let () =
  Alcotest.run "simnet"
    [
      ( "event_heap",
        [
          Alcotest.test_case "time order" `Quick test_heap_orders_by_time;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "ties survive growth" `Quick test_heap_ties_survive_growth;
          Alcotest.test_case "ties among distinct times" `Quick test_heap_ties_among_distinct_times;
          Alcotest.test_case "ties across interleaved pops" `Quick
            test_heap_ties_across_interleaved_pops;
          Alcotest.test_case "size" `Quick test_heap_size;
          Alcotest.test_case "growth + global order" `Quick test_heap_growth;
          QCheck_alcotest.to_alcotest test_heap_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery time" `Quick test_send_delivery_time;
          Alcotest.test_case "dead source" `Quick test_send_from_dead_raises;
          Alcotest.test_case "send after revive" `Quick test_send_after_revive_delivers;
          Alcotest.test_case "message to dead" `Quick test_message_to_dead_dropped;
          Alcotest.test_case "kill midflight" `Quick test_kill_midflight;
          Alcotest.test_case "kill/revive transition-only" `Quick
            test_kill_revive_transition_only;
          Alcotest.test_case "timer on dead node" `Quick test_timer_on_dead_node;
          Alcotest.test_case "schedule unconditional" `Quick test_schedule_unconditional;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "slice-boundary order" `Quick test_run_until_boundary_order;
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "message loss" `Quick test_message_loss;
          Alcotest.test_case "loss validation" `Quick test_loss_validation;
          Alcotest.test_case "livelock guard" `Quick test_run_until_quiet_guard;
          Alcotest.test_case "cascading sends" `Quick test_cascading_sends;
        ] );
    ]
