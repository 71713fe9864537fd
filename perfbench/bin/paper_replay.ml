(* paper-replay: the paper's experiment at ten times its size — a TS
   topology with 100 000 nodes, HIERAS at depth 2 with 4 landmarks, and
   paired Chord+HIERAS lookups replayed with latency through
   Experiments.Runner. The topology is the workload's fixed deployment;
   the request streams come from the seed. Batches of 50 000 lookups
   repeat until the run's time is spent; latency figures come from the
   first six batches (300 000 lookups) whatever the machine's speed. *)

module Runner = Experiments.Runner
module Config = Experiments.Config
module Histogram = Stats.Histogram
module Summary = Stats.Summary
module Id = Hashid.Id
module Report = Perfbench.Report
module Span = Perfbench.Span

let topology_seed = 2003
let nodes = 100_000
let batch = 50_000
let fixed_batches = 6
let sampled = 2000

let config =
  Config.paper_default |> Fun.flip Config.with_nodes nodes
  |> Fun.flip Config.with_seed topology_seed
  |> Fun.flip Config.with_requests batch

let batch_config ~seed i = Config.with_seed config (Util.sub_seed seed (i + 1))

let setup ?timer () =
  let env = Runner.build_env ?timer config in
  let hnet = Runner.build_hieras ?timer env config in
  (env, hnet)

(* Requests of the seed's own drawing for the direct route calls. *)
let sample_requests ~seed n =
  let rng = Prng.Rng.create ~seed:(Util.sub_seed seed 0) in
  Array.init n (fun _ ->
      let origin = Prng.Rng.int rng nodes in
      { Probes.origin; key = Id.random Id.sha1_space rng })

(* One replay batch; a HIERAS owner that differs from Chord's raises inside
   Runner.measure and fails the whole batch. *)
let measure rep ?trace env hnet cfg =
  match Runner.measure ?trace env hnet cfg with
  | m ->
      Report.check rep
        (Summary.count m.Runner.chord_hops = batch && Summary.count m.Runner.hieras_hops = batch)
        "Runner.measure did not replay every request of the batch";
      Report.count_ops rep ~attempted:batch ~failed:0;
      Some m
  | exception Failure why ->
      Report.reject rep why;
      Report.count_ops rep ~attempted:batch ~failed:batch;
      None

let replayed_sim_s m =
  (Summary.mean m.Runner.chord_latency +. Summary.mean m.Runner.hieras_latency)
  *. float_of_int batch /. 1000.0

let untraced rep ~seed ~seconds =
  let (env, hnet), setup_s = Util.repeated_setup ~reps:3 setup in
  Report.set rep "setup_s" setup_s;
  let t_start = Util.now () in
  let rates = ref [] and sim_rates = ref [] and hist = ref None and rss = ref 0.0 in
  let i = ref 0 in
  while !i < fixed_batches || Util.now () -. t_start < seconds do
    (match Util.timed (fun () -> measure rep env hnet (batch_config ~seed !i)) with
    | Some m, dt ->
        rates := (float_of_int batch /. dt) :: !rates;
        sim_rates := (replayed_sim_s m /. dt) :: !sim_rates;
        if !i < fixed_batches then
          hist :=
            Some
              (match !hist with
              | None -> m.Runner.hieras_latency_hist
              | Some h -> Histogram.merge h m.Runner.hieras_latency_hist)
    | None, _ -> ());
    incr i;
    (* before the batches whose number depends on the machine's speed *)
    if !i = fixed_batches then rss := Util.peak_rss_mb rep
  done;
  Report.set rep "lookups_per_s" (Perfbench.Pct.median !rates);
  Report.set rep "sim_s_per_wall_s" (Perfbench.Pct.median !sim_rates);
  (match !hist with
  | Some h ->
      let n = Histogram.count h in
      Report.check rep (Histogram.clamped h * 100 < n)
        "over 1% of HIERAS latencies fall outside the histogram's range";
      Report.check rep (Perfbench.Pct.trusted n 0.99) "too few HIERAS lookups for a p99";
      Report.set rep "lookup_p50_ms" (Histogram.quantile h 0.5);
      Report.set rep "lookup_p99_ms" (Histogram.quantile h 0.99);
      Util.log "  %s"
        (Perfbench.Pct.describe ~what:"HIERAS lookup latency (Runner histogram)"
           ~median:(Histogram.quantile h 0.5)
           ~tail:
             (Option.map
                (fun q -> { Perfbench.Pct.q; value = Histogram.quantile h q; count = n })
                (Perfbench.Pct.highest_q n)))
  | None -> Report.reject rep "no replay batch completed");
  Util.log "  %d batches of %d paired lookups, lookups/s: %s" !i batch
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !rates));
  let reqs = sample_requests ~seed sampled in
  let _, _, bad =
    Probes.make_agrees ~spans:Span.disabled ~net:(Runner.chord_network env)
      ~lat:(Runner.latency_oracle env) ~hnet reqs
  in
  Report.count_ops rep ~attempted:sampled ~failed:bad;
  Report.check rep (bad = 0)
    (Printf.sprintf "Hieras.Make disagrees with Hlookup on %d of %d sampled requests" bad sampled);
  Report.set rep "peak_rss_mb" !rss

(* Setup phases from the library's own phase timer. *)
let phase_s timer name =
  let rec find = function
    | [] -> 0.0
    | (n : Obs.Timer.node) :: rest ->
        if n.Obs.Timer.name = name then n.Obs.Timer.total_s
        else
          let v = find n.Obs.Timer.children in
          if v > 0.0 then v else find rest
  in
  find (Obs.Timer.roots timer)

let traced rep ~spans ~seed =
  let timer = Obs.Timer.create ~clock:Util.now in
  let env, hnet =
    Span.with_span spans ~layer:"experiments" "runner.setup" (fun () -> setup ~timer ())
  in
  Report.set rep "topology.build_s" (phase_s timer "topology");
  Report.set rep "chord.build_s" (phase_s timer "chord-build");
  Report.set rep "binning.build_s" (phase_s timer "binning");
  Report.set rep "hieras.build_s" (phase_s timer "hieras-build");
  let net = Runner.chord_network env and lat = Runner.latency_oracle env in
  Report.seti rep "chord.bytes_resident" (Chord.Network.bytes_resident net);
  Report.seti rep "hieras.bytes_resident" (Hieras.Hnetwork.bytes_resident hnet);
  let replay ?trace i =
    Util.timed (fun () ->
        Span.with_span spans ~layer:"experiments" "runner.measure" (fun () ->
            measure rep ?trace env hnet (batch_config ~seed i)))
  in
  let plain = List.init 3 (fun i -> replay i) in
  let trace_buf = Buffer.create 65536 in
  let trace = Obs.Trace.jsonl ~sample:0.001 (Buffer.add_string trace_buf) in
  let _, traced_s = replay ~trace 0 in
  let plain_s = Perfbench.Pct.median (List.map snd plain) in
  Report.set rep "runner.replay_s" plain_s;
  Util.log "  replay of %d paired lookups: untraced %.3f s, with a 0.1%% lookup trace %.3f s" batch
    plain_s traced_s;
  (match plain with
  | (Some m, _) :: _ ->
      Report.set rep "latency_ratio" (Runner.latency_ratio m);
      Report.seti rep "lookup_samples" (Histogram.count m.Runner.hieras_latency_hist)
  | _ -> ());
  let reqs = sample_requests ~seed sampled in
  let bad = Probes.analytic rep ~spans ~net ~lat ~hnet reqs in
  Report.count_ops rep ~attempted:sampled ~failed:bad;
  Report.check rep (bad = 0) "Hieras.Make disagrees with Hlookup on sampled requests";
  Probes.hashid rep ~space:Id.sha1_space
    ~names:(Array.init sampled (Printf.sprintf "peer-%d%d" topology_seed))
    ~ids:(Array.init sampled (Chord.Network.id net))
    ~keys:(Array.map (fun (r : Probes.request) -> r.key) reqs);
  (* origin-to-owner host pairs: where each sampled lookup starts and ends *)
  Probes.oracle rep lat
    ~pairs:
      (Array.map
         (fun (r : Probes.request) ->
           ( Chord.Network.host net r.origin,
             Chord.Network.host net (Chord.Network.successor_of_key net r.key) ))
         reqs);
  Probes.cache rep ~keys:(Array.map (fun (r : Probes.request) -> r.key) reqs);
  Probes.engine_noop rep ~depth:1
