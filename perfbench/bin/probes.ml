(* Direct timings of single public calls, made in traced runs on the
   workload's own identifiers, keys, hosts and networks. *)

module Id = Hashid.Id
module Report = Perfbench.Report
module Span = Perfbench.Span
module HM = Hieras.Make (Chord.Routable)

type request = { origin : int; key : Id.t }

let hashid rep ~space ~names ~ids ~keys =
  let n = Array.length names and k = Array.length ids and m = Array.length keys in
  Report.set rep "hashid.of_hash_ns" (Util.ns_per_call ~n (fun i -> Id.of_hash space names.(i)));
  let lo = Array.init m (fun i -> ids.(i mod k)) and hi = Array.init m (fun i -> ids.((i + 1) mod k)) in
  Report.set rep "hashid.in_oc_ns"
    (Util.ns_per_call ~n:m (fun i -> Id.in_oc keys.(i) ~lo:lo.(i) ~hi:hi.(i)))

let oracle rep lat ~pairs =
  Report.set rep "oracle.host_latency_ns"
    (Util.ns_per_call ~n:(Array.length pairs) (fun i ->
         let a, b = pairs.(i) in
         Topology.Latency.host_latency lat a b));
  let s = Topology.Latency.stats lat in
  Report.seti rep "oracle.rows_computed" s.Topology.Latency.rows_computed;
  Report.seti rep "oracle.row_hits" s.Topology.Latency.row_hits

(* Sampled requests through [Hieras.Make (Chord.Routable)] must reach the
   same owner in the same number of hops as the native [Hlookup]; returns
   the built functor network, its build time and the number of
   disagreeing requests. *)
let make_agrees ~spans ~net ~lat ~hnet (reqs : request array) =
  let hm, build_s =
    Util.timed (fun () ->
        Span.with_span spans ~layer:"hieras" "hieras_make.build" (fun () ->
            HM.build ~base:(Chord.Routable.make ~net ~lat) ~lat
              ~landmarks:(Hieras.Hnetwork.landmarks hnet) ~depth:(Hieras.Hnetwork.depth hnet) ()))
  in
  let scratch = Array.make (Hieras.Hnetwork.depth hnet) 0 in
  let bad = ref 0 in
  Array.iter
    (fun r ->
      let hops_a, _, owner_a, _ =
        Hieras.Hlookup.route_hops_only ~into:scratch hnet ~origin:r.origin ~key:r.key
      in
      let hops_b, owner_b = HM.route_hops_only hm ~origin:r.origin ~key:r.key in
      if not (Perfbench.Checks.same_route ~owner_a ~hops_a ~owner_b ~hops_b) then incr bad)
    reqs;
  (hm, build_s, !bad)

(* Route and hop-only timings for both algorithms and the functor, mean
   hop counts, and the cost of an enabled per-lookup tracer. Returns the
   number of requests on which the functor and [Hlookup] disagree. *)
let analytic rep ~spans ~net ~lat ~hnet (reqs : request array) =
  let n = Array.length reqs in
  let chord_route ?trace i =
    (Chord.Lookup.route ?trace net lat ~origin:reqs.(i).origin ~key:reqs.(i).key).Chord.Lookup.hop_count
  in
  let hieras_route ?trace i =
    (Hieras.Hlookup.route ?trace hnet ~origin:reqs.(i).origin ~key:reqs.(i).key)
      .Hieras.Hlookup.hop_count
  in
  let scratch = Array.make (Hieras.Hnetwork.depth hnet) 0 in
  Span.with_span spans ~layer:"chord" "chord.route" (fun () ->
      Report.set rep "chord.route_ns" (Util.ns_per_call ~n (fun i -> chord_route i));
      Report.set rep "chord.hops_only_ns"
        (Util.ns_per_call ~n (fun i ->
             fst (Chord.Lookup.route_hops_only net ~origin:reqs.(i).origin ~key:reqs.(i).key))));
  Span.with_span spans ~layer:"hieras" "hieras.route" (fun () ->
      Report.set rep "hieras.route_ns" (Util.ns_per_call ~n (fun i -> hieras_route i));
      Report.set rep "hieras.hops_only_ns"
        (Util.ns_per_call ~n (fun i ->
             let h, _, _, _ =
               Hieras.Hlookup.route_hops_only ~into:scratch hnet ~origin:reqs.(i).origin
                 ~key:reqs.(i).key
             in
             h)));
  let chord_hops = ref 0 and hieras_hops = ref 0 and lower = ref 0 in
  Array.iter
    (fun r ->
      chord_hops := !chord_hops + fst (Chord.Lookup.route_hops_only net ~origin:r.origin ~key:r.key);
      let h, per_layer, _, _ =
        Hieras.Hlookup.route_hops_only ~into:scratch hnet ~origin:r.origin ~key:r.key
      in
      hieras_hops := !hieras_hops + h;
      lower := !lower + h - per_layer.(0))
    reqs;
  let mean v = float_of_int v /. float_of_int (max 1 n) in
  Report.set rep "chord.hops_mean" (mean !chord_hops);
  Report.set rep "hieras.hops_mean" (mean !hieras_hops);
  Report.set rep "hieras.lower_hop_share"
    (if !hieras_hops = 0 then 0.0 else float_of_int !lower /. float_of_int !hieras_hops);
  let hm, build_s, bad = make_agrees ~spans ~net ~lat ~hnet reqs in
  Report.set rep "hieras_make.build_s" build_s;
  Span.with_span spans ~layer:"hieras" "hieras_make.route" (fun () ->
      Report.set rep "hieras_make.route_ns"
        (Util.ns_per_call ~n (fun i ->
             (HM.route hm ~origin:reqs.(i).origin ~key:reqs.(i).key).Routing.hop_count)));
  (* the library's per-lookup tracer, on a bounded in-memory sink *)
  let plain = Util.ns_per_call ~n (fun i -> chord_route i + hieras_route i) in
  let trace = Obs.Trace.ring ~capacity:4096 in
  let traced = Util.ns_per_call ~n (fun i -> chord_route ~trace i + hieras_route ~trace i) in
  Report.set rep "obs.trace_overhead_pct" (Util.pct_overhead ~base:plain ~traced);
  bad

let cache rep ~keys =
  let c = Store.Cache.create Store.Cache.default_config in
  let n = Array.length keys in
  Report.set rep "cache.insert_ns"
    (Util.ns_per_call ~n (fun i ->
         Store.Cache.insert c ~now:(float_of_int i) keys.(i) ~value:"v" ~bytes:1024));
  Report.set rep "cache.find_ns"
    (Util.ns_per_call ~n (fun i -> Store.Cache.find c ~now:(float_of_int n) keys.(i)))

(* A bare engine whose events are no-op closures that re-arm themselves,
   holding [depth] events pending: the dispatch cost alone. *)
let engine_noop rep ~depth =
  let eng = Simnet.Engine.create ~latency:(fun _ _ -> 1.0) ~nodes:1 in
  let rng = Prng.Rng.create ~seed:17 in
  let delays = Array.init 4096 (fun _ -> 1.0 +. Prng.Rng.float rng 1000.0) in
  let k = ref 0 in
  let rec tick () =
    incr k;
    Simnet.Engine.schedule eng ~delay:delays.(!k land 4095) tick
  in
  for _ = 1 to max 1 depth do
    tick ()
  done;
  let events = 200_000 in
  let samples =
    List.init 5 (fun _ ->
        let (), dt = Util.timed (fun () -> Simnet.Engine.run ~max_events:events eng) in
        dt *. 1e9 /. float_of_int events)
  in
  Report.set rep "engine.noop_ns_per_event" (Perfbench.Pct.median samples)
