(* Tests of the benchmark's own code: the metric catalogue and its mirror
   in BENCHMARK.json, the percentile rule, operation accounting, span self
   times, and the output checks rejecting corrupted results. *)

open Perfbench
module Id = Hashid.Id
module J = Obs.Jsonu

let names ms = List.map (fun m -> m.Spec.name) ms

let test_metric_names () =
  List.iter
    (fun m ->
      Alcotest.(check bool) ("valid name " ^ m.Spec.name) true (Spec.valid_name m.Spec.name);
      Alcotest.(check bool) ("valid unit " ^ m.Spec.unit_) true (Spec.valid_unit m.Spec.unit_))
    Spec.all;
  let all = names Spec.all in
  Alcotest.(check int) "each name used once" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "1..16 end-to-end" true
    (List.length Spec.end_to_end >= 1 && List.length Spec.end_to_end <= 16);
  Alcotest.(check bool) "1..128 per-layer" true
    (List.length Spec.per_layer >= 1 && List.length Spec.per_layer <= 128);
  List.iter
    (fun m ->
      match m.Spec.bound with
      | Some b -> Alcotest.(check bool) ("bound of " ^ m.Spec.name) true (b > 0.0 && b <= 0.25)
      | None -> Alcotest.fail (m.Spec.name ^ " has no bound"))
    Spec.end_to_end;
  List.iter
    (fun m -> Alcotest.(check bool) (m.Spec.name ^ " has no bound") true (m.Spec.bound = None))
    Spec.per_layer;
  (match Spec.find "setup_s" with
  | Some { unit_ = "s"; better = Spec.Lower; bound = Some _; _ } -> ()
  | _ -> Alcotest.fail "setup_s must be an end-to-end metric in s, lower is better");
  Alcotest.(check bool) "2..8 workloads" true
    (List.length Spec.workloads >= 2 && List.length Spec.workloads <= 8);
  List.iter
    (fun (w, why) ->
      Alcotest.(check bool) ("workload name " ^ w) true (Spec.valid_name w);
      Alcotest.(check bool) ("why of " ^ w) true
        (String.length why <= 200 && not (String.contains why '\n')))
    Spec.workloads;
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Spec.valid_name bad))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "é"; String.make 65 'a' ]

let member k j = match J.member k j with Some v -> v | None -> Alcotest.fail ("missing " ^ k)
let str j = Option.get (J.to_string j)
let list j = Option.get (J.to_list j)

(* BENCHMARK.json must describe exactly the metrics and workloads above. *)
let test_benchmark_json () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let j = match J.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  (match j with
  | J.Obj members ->
      Alcotest.(check (list string)) "top-level keys"
        [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
        (List.sort compare (List.map fst members))
  | _ -> Alcotest.fail "not an object");
  let metrics key spec =
    let got = list (member key j) in
    Alcotest.(check (list string)) (key ^ " names") (names spec) (List.map (fun m -> str (member "name" m)) got);
    List.iter2
      (fun m g ->
        Alcotest.(check string) (m.Spec.name ^ " unit") m.Spec.unit_ (str (member "unit" g));
        Alcotest.(check string) (m.Spec.name ^ " better") (Spec.better_name m.Spec.better)
          (str (member "better" g));
        match m.Spec.bound with
        | Some b ->
            Alcotest.(check (float 1e-12)) (m.Spec.name ^ " bound") b
              (Option.get (J.to_float (member "bound" g)))
        | None -> Alcotest.(check bool) (m.Spec.name ^ " unbounded") true (J.member "bound" g = None))
      spec got
  in
  metrics "end_to_end" Spec.end_to_end;
  metrics "per_layer" Spec.per_layer;
  Alcotest.(check (list (pair string string)))
    "workloads" Spec.workloads
    (List.map (fun w -> (str (member "name" w), str (member "why" w))) (list (member "workloads" j)))

let test_percentiles () =
  let ramp n = Array.init n (fun i -> float_of_int (n - i)) in
  (match Pct.highest_tail (ramp 1000) with
  | Some t ->
      Alcotest.(check (float 0.0)) "p99 is the highest tail at n = 1000" 0.99 t.Pct.q;
      Alcotest.(check int) "sample count reported" 1000 t.Pct.count;
      Alcotest.(check (float 1e-9)) "p99 of 1..1000" 990.01 t.Pct.value
  | None -> Alcotest.fail "no tail");
  (* p99 at n = 902 sits between ranks 891 and 892 with ten above it;
     at n = 901 exactly on rank 891 with nine above *)
  (match Pct.highest_tail (ramp 902) with
  | Some t -> Alcotest.(check (float 0.0)) "p99 with ten beyond" 0.99 t.Pct.q
  | None -> Alcotest.fail "no tail");
  (match Pct.highest_tail (ramp 901) with
  | Some t -> Alcotest.(check (float 0.0)) "p90 when p99 has nine beyond" 0.9 t.Pct.q
  | None -> Alcotest.fail "no tail");
  Alcotest.(check bool) "a median with ten above it at n = 20" true
    (Option.map (fun t -> t.Pct.q) (Pct.highest_tail (ramp 20)) = Some 0.5);
  Alcotest.(check bool) "no tail at n = 19" true (Pct.highest_tail (ramp 19) = None);
  Alcotest.(check bool) "p99 refused at n = 901" true (Pct.checked (ramp 901) 0.99 = None);
  Alcotest.(check (option (float 1e-9))) "median of 1..21" (Some 11.0) (Pct.checked (ramp 21) 0.5);
  Alcotest.(check int) "ten beyond p99 at n = 1000" 10 (Pct.beyond 1000 0.99);
  Alcotest.(check (float 0.0)) "median of a list" 2.5 (Pct.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_accounting () =
  let t = Ops.create () in
  let ids = List.init 7 (fun i -> Ops.issue t ~origin:i) in
  List.iteri
    (fun i id ->
      match i with
      | 0 | 1 -> Ops.complete t id Ops.Ok
      | 2 -> Ops.complete t id Ops.Wrong
      | 3 -> Ops.complete t id Ops.Failed
      | _ -> ())
    ids;
  (* origin 4 died; origins 5 and 6 lived and never heard back *)
  let s = Ops.summary t ~alive:(fun o -> o <> 4) in
  Alcotest.(check int) "issued" 7 s.Ops.issued;
  Alcotest.(check int) "lost with its origin" 1 s.Ops.lost;
  Alcotest.(check int) "never called back" 2 s.Ops.never;
  Alcotest.(check bool) "balanced" true (Ops.balanced s);
  Alcotest.(check (float 1e-12)) "never-called-back counts as failed" (5.0 /. 7.0) (Ops.fail_ratio s);
  Alcotest.(check int) "broken promises" 2 (Ops.broken s);
  Ops.complete t 0 Ops.Ok;
  let s = Ops.summary t ~alive:(fun _ -> true) in
  Alcotest.(check int) "a second callback is counted" 1 s.Ops.doubles;
  Alcotest.(check int) "and breaks the promise" 4 (Ops.broken s);
  Alcotest.(check int) "first outcome kept" 2 s.Ops.ok;
  let big = Ops.create () in
  for _ = 1 to 1000 do
    ignore (Ops.issue big ~origin:0)
  done;
  Alcotest.(check int) "grows" 1000 (Ops.summary big ~alive:(fun _ -> true)).Ops.never

let test_span_self_time () =
  let clock = ref 0.0 in
  let tick d = clock := !clock +. d in
  let spans = Span.create ~workload:"w" ~clock:(fun () -> !clock) in
  Span.with_span spans ~layer:"outer" "a" (fun () ->
      tick 1.0;
      Span.with_span spans ~layer:"inner" "b" (fun () -> tick 2.0);
      let id = Span.start_async spans ~layer:"async" "op" in
      tick 0.5;
      Span.finish_async spans id);
  Alcotest.(check (list (pair string (float 1e-12))))
    "self time excludes children and async spans" [ ("inner", 2.0); ("outer", 1.5) ]
    (Span.self_times spans);
  Alcotest.(check int) "every span written" 3
    (List.length (String.split_on_char '\n' (String.trim (Span.to_jsonl spans))));
  Alcotest.(check int) "disabled records nothing" 0 (Span.start_async Span.disabled ~layer:"x" "y")

let result_json rep ~trace =
  match J.parse (Report.to_json rep ~trace) with Ok j -> j | Error e -> Alcotest.fail e

let correct j = member "correct" j = J.Bool true

let test_corrupt_rejected () =
  let space = Id.space ~bits:32 in
  let ids = Array.init 8 (fun i -> Id.of_hash space (string_of_int i)) in
  Array.sort Id.compare ids;
  let key = Id.succ space ids.(3) in
  Alcotest.(check bool) "true owner accepted" true
    (Checks.owner_ok ~sorted_ids:ids ~key ~owner:ids.(4));
  Alcotest.(check bool) "wrong owner rejected" false
    (Checks.owner_ok ~sorted_ids:ids ~key ~owner:ids.(5));
  Alcotest.(check bool) "wraps past the largest id" true
    (Checks.owner_ok ~sorted_ids:ids ~key:(Id.succ space ids.(7)) ~owner:ids.(0));
  Alcotest.(check bool) "tampered value rejected" false
    (Checks.value_ok ~expected:"2003:17:abc" ~got:"2003:17:abd");
  Alcotest.(check bool) "different hop count rejected" false
    (Checks.same_route ~owner_a:4 ~hops_a:3 ~owner_b:4 ~hops_b:4);
  let rep = Report.create () in
  Report.count_ops rep ~attempted:10 ~failed:0;
  Report.set rep "setup_s" 1.5;
  let j = result_json rep ~trace:false in
  Alcotest.(check bool) "clean run is correct" true (correct j);
  Alcotest.(check (list string)) "exactly the end-to-end metrics" (names Spec.end_to_end)
    (match member "metrics" j with J.Obj m -> List.map fst m | _ -> []);
  Report.check rep (Checks.value_ok ~expected:"v" ~got:"corrupted") "a read returned a corrupted value";
  Alcotest.(check bool) "a corrupted value fails the run" false (correct (result_json rep ~trace:false));
  Alcotest.(check (list string)) "with its reason" [ "a read returned a corrupted value" ]
    (Report.problems rep);
  let rep = Report.create () in
  Report.count_ops rep ~attempted:1 ~failed:0;
  Report.set rep "engine.ns_per_event" nan;
  Alcotest.(check bool) "a non-finite metric fails the run" false (correct (result_json rep ~trace:true));
  let rep = Report.create () in
  Alcotest.(check bool) "a run that attempted nothing fails" false (correct (result_json rep ~trace:false));
  Alcotest.check_raises "unknown metric names are refused" (Invalid_argument "Report.set: unknown metric nope")
    (fun () -> Report.set rep "nope" 1.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "spec",
        [
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
      ("percentiles", [ Alcotest.test_case "highest tail rule" `Quick test_percentiles ]);
      ("accounting", [ Alcotest.test_case "every operation once" `Quick test_accounting ]);
      ("spans", [ Alcotest.test_case "self time" `Quick test_span_self_time ]);
      ("checks", [ Alcotest.test_case "corrupted results rejected" `Quick test_corrupt_rejected ]);
    ]
