(* kv-zipf: Store.Kv over Hieras.Hprotocol with a Store.Cache per origin.
   A 64-node pool joins and settles, 1000 catalogue objects are put at
   r = 3, a spaced 20% kill lands (never two victims inside one replica
   window), and after healing 10 000 zipf(0.8) reads replay through the
   caches with no message loss. Every value read must equal the
   catalogue's. One round is the whole timeline on the seed's input set;
   rounds repeat until the run's time is spent. *)

module Engine = Simnet.Engine
module Id = Hashid.Id
module Kv = Store.Kv
module Report = Perfbench.Report
module Span = Perfbench.Span
module Ops = Perfbench.Ops

let pool = 64
let objects = 1000
let reads = 10_000
let replication = 3
let alpha = 0.8
let kill_frac = 0.2
let join_every_ms = 100.0
let put_every_ms = 20.0
let read_every_ms = 4.0
let heal_ms = 12_000.0
let cooldown_ms = 10_000.0
let settle_ms = (float_of_int pool *. join_every_ms) +. 10_000.0
let t_kill = settle_ms +. (float_of_int objects *. put_every_ms) +. 4_000.0
let t_read = t_kill +. heal_ms
let end_ms = t_read +. (float_of_int reads *. read_every_ms) +. cooldown_ms

let cache_config =
  let d = Experiments.Cache.default_spec in
  {
    Store.Cache.default_config with
    capacity_entries = d.Experiments.Cache.cache_entries;
    capacity_bytes = d.Experiments.Cache.cache_bytes;
    ttl_ms = d.Experiments.Cache.ttl_ms;
  }

type obj = { key : Id.t; value : string; bytes : int }

type inputs = {
  dep : Msg.deployment;
  catalogue : obj array;
  put_origins : int array;  (** origin draws, one per object *)
  stream : Workload.Webcache.request array;
  victim_offset : int;  (** rotation of the identifier order the spaced kill walks *)
}

(* The objects' names, keys and sizes are the library's web catalogue, a
   fixed shape like the topology; the values written, the put order, the
   read stream and the kill come from the seed. *)
let make_inputs seed =
  let dep = Msg.deployment ~pool in
  let rng = Prng.Rng.create ~seed:(Util.sub_seed seed 11) in
  let spec = { Workload.Webcache.default_spec with count = reads; objects; alpha } in
  let catalogue =
    Array.mapi
      (fun i (o : Workload.Webcache.obj) ->
        let value = Printf.sprintf "%d:%d:%Lx" seed i (Prng.Rng.bits64 rng) in
        { key = o.key; value; bytes = o.bytes })
      (Workload.Webcache.catalogue spec Msg.space)
  in
  let put_origins = Array.init objects (fun _ -> Prng.Rng.int rng 1_000_000_000) in
  let stream =
    Workload.Webcache.to_array spec ~nodes:pool (Prng.Rng.create ~seed:(Util.sub_seed seed 12))
  in
  { dep; catalogue; put_origins; stream; victim_offset = Prng.Rng.int rng pool }

(* A round's outcome: small, so rounds can be kept without keeping the
   engine, protocol and store state they ran on. *)
type cell = {
  puts : Ops.summary;
  reads_ : Ops.summary;  (** reads of acknowledged objects, cache hits included *)
  corrupt : int;  (** values read back that differ from the catalogue *)
  skipped : int;  (** stream entries naming an object whose put was never acknowledged *)
  routed : float array;  (** issue-to-answer latency of answered puts and routed gets *)
  gets : float array;  (** fetch latency of cache misses that found the object *)
  resolved : int;  (** routed puts and gets whose callback fired *)
  hits : int;
  sent : int;
  engine_s : float;
  sim_s : float;
}

(* What the traced run reads after a round. *)
type state = {
  ctx : Msg.ctx;
  proto : Msg.proto;
  kv : Kv.t;
  caches : Store.Cache.t array;
  netspan : Obs.Netspan.t;
  tap : Msg.oracle_tap option;
}

(* Builds the round's cell — engine, protocol, store, caches and every
   scheduled input — and returns the function that runs it. *)
let build_cell ~spans ~mode inp =
  let eng, netspan, tap = Msg.engine ~mode inp.dep in
  let spans = if mode = Msg.Traced then spans else Span.disabled in
  let ctx = Msg.create_ctx ~eng ~spans in
  let p = Msg.hieras eng ~lat:inp.dep.lat ~landmarks:inp.dep.landmarks in
  p.Msg.spawn ~addr:0 ~id:inp.dep.ids.(0);
  for i = 1 to pool - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. join_every_ms) (fun () ->
        p.Msg.join ~addr:i ~id:inp.dep.ids.(i) ~bootstrap:0)
  done;
  let sub = p.Msg.substrate () in
  let kv = Kv.create { Kv.default_config with replication } sub in
  for i = 0 to pool - 1 do
    Kv.track kv i
  done;
  let caches = Array.init pool (fun _ -> Store.Cache.create cache_config) in
  let routed = ref [] and resolved = ref 0 in
  let puts = Ops.create () and acked = Array.make objects false in
  Array.iteri
    (fun i (o : obj) ->
      Engine.schedule eng ~delay:(settle_ms +. (float_of_int i *. put_every_ms)) (fun () ->
          match sub.Kv.live_members () with
          | [] -> ()
          | live ->
              let origin = List.nth live (inp.put_origins.(i) mod List.length live) in
              let id = Ops.issue puts ~origin in
              let sp = Span.start_async spans ~layer:"store" "kv.put" in
              let t0 = Engine.now eng in
              Kv.put kv ~origin ~key:o.key ~value:o.value ~bytes:o.bytes (fun r ->
                  Span.finish_async spans sp;
                  incr resolved;
                  match r with
                  | Some _ ->
                      acked.(i) <- true;
                      routed := (Engine.now eng -. t0) :: !routed;
                      Ops.complete puts id Ops.Ok
                  | None -> Ops.complete puts id Ops.Failed)))
    inp.catalogue;
  Engine.schedule eng ~delay:t_kill (fun () ->
      let by_id = Msg.sorted_members p in
      let n = Array.length by_id in
      let rotated = Array.init n (fun i -> by_id.((i + inp.victim_offset) mod n)) in
      List.iter p.Msg.fail
        (Experiments.Cache.spaced_victims ~members_by_id:rotated ~frac:kill_frac ~r:replication));
  let reads_ops = Ops.create () in
  let corrupt = ref 0 and skipped = ref 0 and hits = ref 0 and gets = ref [] in
  let verdict (o : obj) got =
    if Perfbench.Checks.value_ok ~expected:o.value ~got then Ops.Ok
    else begin
      incr corrupt;
      Ops.Wrong
    end
  in
  Array.iteri
    (fun i (req : Workload.Webcache.request) ->
      Engine.schedule eng ~delay:(t_read +. (float_of_int i *. read_every_ms)) (fun () ->
          let o = inp.catalogue.(req.obj) in
          (* a dead origin hands its request to the next live address *)
          let rec live_origin a tries =
            if tries = 0 then None
            else if sub.Kv.is_member a then Some a
            else live_origin ((a + 1) mod pool) (tries - 1)
          in
          match live_origin req.origin pool with
          | _ when not acked.(req.obj) -> incr skipped
          | None -> incr skipped
          | Some origin -> (
              let id = Ops.issue reads_ops ~origin in
              let cache = caches.(origin) in
              let now = Engine.now eng in
              match
                Span.with_span spans ~layer:"cache" "cache.find" (fun () ->
                    Store.Cache.find cache ~now o.key)
              with
              | Some (v, _) ->
                  incr hits;
                  Ops.complete reads_ops id (verdict o v)
              | None ->
                  let sp = Span.start_async spans ~layer:"store" "kv.get" in
                  Kv.get kv ~origin ~key:o.key (fun r ->
                      Span.finish_async spans sp;
                      incr resolved;
                      let dt = Engine.now eng -. now in
                      match r with
                      | Kv.Found g ->
                          routed := dt :: !routed;
                          gets := dt :: !gets;
                          Ops.complete reads_ops id (verdict o g.Kv.g_value);
                          Span.with_span spans ~layer:"cache" "cache.insert" (fun () ->
                              Store.Cache.insert cache ~now:(Engine.now eng) o.key
                                ~value:g.Kv.g_value ~bytes:g.Kv.g_bytes)
                      | Kv.Absent | Kv.Unreachable -> Ops.complete reads_ops id Ops.Failed))))
    inp.stream;
  fun () ->
    Msg.run_until ctx p ~until:end_ms;
    ( {
        puts = Ops.summary puts ~alive:(Engine.is_alive eng);
        reads_ = Ops.summary reads_ops ~alive:(Engine.is_alive eng);
        corrupt = !corrupt;
        skipped = !skipped;
        routed = Array.of_list (List.rev !routed);
        gets = Array.of_list (List.rev !gets);
        resolved = !resolved;
        hits = !hits;
        sent = Engine.sent eng;
        engine_s = Msg.engine_s ctx;
        sim_s = ctx.Msg.sim_ms /. 1000.0;
      },
      { ctx; proto = p; kv; caches; netspan; tap } )

let signature c =
  (c.sent, c.puts, c.reads_, c.hits, Array.fold_left ( +. ) 0.0 c.routed)

let check_cell rep c =
  List.iter
    (fun (what, s) ->
      Report.check rep (Ops.balanced s) (what ^ " accounting does not balance");
      Report.check rep (s.Ops.never = 0)
        (Printf.sprintf "%d %s from live origins were never called back" s.Ops.never what);
      Report.check rep (s.Ops.doubles = 0)
        (Printf.sprintf "%d %s were called back twice" s.Ops.doubles what);
      Report.count_ops rep ~attempted:s.Ops.issued ~failed:(Ops.broken s))
    [ ("puts", c.puts); ("reads", c.reads_) ];
  Report.check rep (c.corrupt = 0)
    (Printf.sprintf "%d reads returned a value other than the catalogue's" c.corrupt);
  Report.count_ops rep ~attempted:0 ~failed:c.corrupt

let describe c =
  Util.log
    "  puts %d acked %d | reads %d ok %d failed %d lost %d never %d corrupt %d skipped %d hits %d | sent %d"
    c.puts.Ops.issued c.puts.Ops.ok c.reads_.Ops.issued c.reads_.Ops.ok c.reads_.Ops.failed
    c.reads_.Ops.lost c.reads_.Ops.never c.corrupt c.skipped c.hits c.sent

(* Everything before the first Engine.run: the input set and the cell. *)
let setup ~spans ~mode seed =
  let inp = make_inputs seed in
  (inp, build_cell ~spans ~mode inp)

let setup_reps = 10
let min_rounds = 3

let untraced rep ~seed ~seconds =
  let seed = Util.sub_seed seed 0 in
  let plain () = setup ~spans:Span.disabled ~mode:Msg.Plain seed in
  (* set-up is timed in every round, so it samples the whole run *)
  let setup_times = ref [] in
  let cells, rss =
    Util.rounds rep ~min:min_rounds ~seconds
      ~round:(fun () ->
        let (_, run), setup_s = Util.repeated_setup ~reps:setup_reps plain in
        setup_times := setup_s :: !setup_times;
        fst (run ()))
      ~signature
  in
  List.iter (check_cell rep) cells;
  Report.set rep "setup_s" (Perfbench.Pct.median !setup_times);
  let first = List.hd cells in
  describe first;
  let per_round f = Perfbench.Pct.median (List.map f cells) in
  Report.set rep "sim_s_per_wall_s" (per_round (fun c -> c.sim_s /. c.engine_s));
  Report.set rep "lookups_per_s" (per_round (fun c -> float_of_int c.resolved /. c.engine_s));
  let routed = first.routed in
  (match (Perfbench.Pct.checked routed 0.5, Perfbench.Pct.checked routed 0.99) with
  | Some p50, Some p99 ->
      Report.set rep "lookup_p50_ms" p50;
      Report.set rep "lookup_p99_ms" p99;
      Util.log "  %s"
        (Perfbench.Pct.describe ~what:"routed store operation latency" ~median:p50
           ~tail:(Perfbench.Pct.highest_tail routed))
  | _ -> Report.reject rep "too few answered operations for a p99");
  Util.log "  %d rounds, simulated s per wall s: %s" (List.length cells)
    (String.concat " " (List.map (fun c -> Printf.sprintf "%.1f" (c.sim_s /. c.engine_s)) cells));
  Report.set rep "peak_rss_mb" rss

let sum_caches st f = Array.fold_left (fun acc x -> acc + f x) 0 st.caches

let traced rep ~spans ~seed =
  let seed = Util.sub_seed seed 0 in
  let inp, run_traced =
    Span.with_span spans ~layer:"setup" "setup" (fun () -> setup ~spans ~mode:Msg.Traced seed)
  in
  Report.set rep "topology.build_s" inp.dep.topology_s;
  Report.set rep "binning.build_s" inp.dep.binning_s;
  let run mode = fst ((snd (setup ~spans ~mode seed)) ()) in
  let plain = run Msg.Plain in
  let with_netspan = run Msg.Netspan_only in
  let full, st = run_traced () in
  Report.check rep
    (signature plain = signature with_netspan && signature plain = signature full)
    "tracing changed the simulation's results";
  Report.set rep "obs.netspan_attached_overhead_pct"
    (Util.pct_overhead ~base:plain.engine_s ~traced:with_netspan.engine_s);
  check_cell rep full;
  Msg.export_layers rep st.ctx st.proto ~netspan:st.netspan;
  Option.iter (Msg.report_oracle_tap rep inp.dep.lat) st.tap;
  let kv = st.kv in
  Report.seti rep "kv.replicate_msgs" (Kv.replicate_msgs kv);
  Report.set rep "kv.replicate_share"
    (float_of_int (Kv.replicate_msgs kv) /. float_of_int (max 1 full.sent));
  Report.seti rep "kv.repair_rounds" (Kv.repair_rounds kv);
  Report.seti rep "kv.handoffs" (Kv.handoffs kv);
  Report.seti rep "kv.promotions" (Kv.promotions kv);
  Report.seti rep "kv.pruned" (Kv.pruned kv);
  Report.seti rep "kv.read_repairs" (Kv.read_repairs kv);
  Report.seti rep "kv.items_live" (Kv.items_live kv);
  Report.seti rep "cache.hits" (sum_caches st Store.Cache.hits);
  Report.seti rep "cache.evictions" (sum_caches st Store.Cache.evictions);
  Report.seti rep "cache.expirations" (sum_caches st Store.Cache.expirations);
  Report.set rep "put_fail_ratio" (Ops.fail_ratio full.puts);
  Report.set rep "get_fail_ratio" (Ops.fail_ratio full.reads_);
  Report.set rep "hit_rate"
    (float_of_int full.hits /. float_of_int (max 1 full.reads_.Ops.issued));
  (match Perfbench.Pct.checked full.gets 0.5 with
  | Some v -> Report.set rep "get_p50_ms" v
  | None -> ());
  (match Perfbench.Pct.checked full.gets 0.99 with
  | Some v -> Report.set rep "get_p99_ms" v
  | None -> ());
  Report.seti rep "get_samples" (Array.length full.gets);
  Report.seti rep "lookup_samples" (Array.length full.routed);
  Util.log "  untraced round %.3f s, netspan attached %.3f s, fully traced %.3f s"
    plain.engine_s with_netspan.engine_s full.engine_s;
  let keys = Array.map (fun o -> o.key) inp.catalogue in
  Msg.pool_probes rep ~spans inp.dep
    (Array.map
       (fun (r : Workload.Webcache.request) -> { Probes.origin = r.origin; key = keys.(r.obj) })
       (Array.sub inp.stream 0 2000))
    ~keys
    ~pairs:
      (Array.map (fun (r : Workload.Webcache.request) -> (r.origin, r.obj mod pool)) inp.stream)
