(* The benchmark's metric catalogue: every name it may print, with unit and
   direction. BENCHMARK.json mirrors this table (the test suite compares
   them), and a run's result must name exactly the end-to-end metrics
   (untraced) or exactly the per-layer metrics (traced). *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

let better_name = function Lower -> "lower" | Higher -> "higher"

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '.'
  || c = '-'

let is_alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* Letters, digits, '_', '.', '-'; first a letter or digit; at most 64. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

let valid_unit u =
  let n = String.length u in
  n >= 1 && n <= 16 && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') u

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let workloads =
  [
    ( "paper-replay",
      "closed-loop batch: the paper's Chord+HIERAS lookup replay at 100k nodes; stresses id \
       compare, finger packing, routing step, latency oracle; bypasses engine, protocols, store" );
    ( "ring-soak",
      "closed-loop batch: message-level Chord and HIERAS rings under churn, 1% loss and a 20% \
       crash; stresses engine, timers, maintenance, healing; bypasses analytic routing, store" );
    ( "kv-zipf",
      "closed-loop batch: replicated store over HIERAS with per-node caches, zipf reads after a \
       spaced kill; stresses store repair, cache, engine, protocol; bypasses analytic routing" );
  ]

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.25;
    e2e "lookups_per_s" "1/s" Higher 0.25;
    e2e "sim_s_per_wall_s" "s/s" Higher 0.25;
    e2e "lookup_p50_ms" "ms" Lower 0.25;
    e2e "lookup_p99_ms" "ms" Lower 0.25;
  ]

let protocol_layer p =
  List.map
    (fun m -> layer (p ^ "." ^ m.name) m.unit_ m.better)
    ([
       layer "maint.stabilize" "count" Lower;
       layer "maint.notify" "count" Lower;
       layer "maint.fix_fingers" "count" Lower;
       layer "maint.check_pred" "count" Lower;
     ]
    @ (if p = "hieras_proto" then [ layer "maint.ring" "count" Lower ] else [])
    @ [
        layer "us_per_msg" "us" Lower;
        layer "first_stable_s" "s" Lower;
        layer "stability.observations" "count" Higher;
        layer "stability.changes" "count" Lower;
        layer "stability.disturbances" "count" Lower;
        layer "lookup_hops_mean" "hops" Lower;
        layer "lookup_fail_ratio" "ratio" Lower;
        layer "ring_ok_ratio" "ratio" Higher;
        layer "msgs_per_node_s" "1/s" Lower;
      ]
    @ if p = "chord_proto" then [ layer "lookup_retries" "count" Lower ] else [])

let netspan_name k = Printf.sprintf "netspan.%s.msgs" (Obs.Netspan.kind_name k)

let per_layer =
  [
    layer "hashid.of_hash_ns" "ns" Lower;
    layer "hashid.in_oc_ns" "ns" Lower;
    layer "topology.build_s" "s" Lower;
    layer "oracle.host_latency_ns" "ns" Lower;
    layer "oracle.rows_computed" "count" Lower;
    layer "oracle.row_hits" "count" Higher;
    layer "oracle.calls" "count" Lower;
    layer "oracle.ns_per_call" "ns" Lower;
    layer "binning.build_s" "s" Lower;
    layer "chord.build_s" "s" Lower;
    layer "chord.bytes_resident" "bytes" Lower;
    layer "chord.route_ns" "ns" Lower;
    layer "chord.hops_only_ns" "ns" Lower;
    layer "chord.hops_mean" "hops" Lower;
    layer "hieras.build_s" "s" Lower;
    layer "hieras.bytes_resident" "bytes" Lower;
    layer "hieras.route_ns" "ns" Lower;
    layer "hieras.hops_only_ns" "ns" Lower;
    layer "hieras.hops_mean" "hops" Lower;
    layer "hieras.lower_hop_share" "ratio" Higher;
    layer "hieras_make.build_s" "s" Lower;
    layer "hieras_make.route_ns" "ns" Lower;
    layer "runner.replay_s" "s" Lower;
    layer "engine.events" "count" Lower;
    layer "engine.sent" "count" Lower;
    layer "engine.timers_set" "count" Lower;
    layer "engine.dropped_loss" "count" Lower;
    layer "engine.dropped_dead" "count" Lower;
    layer "engine.pending_max" "count" Lower;
    layer "engine.run_s" "s" Lower;
    layer "engine.ns_per_event" "ns" Lower;
    layer "engine.noop_ns_per_event" "ns" Lower;
  ]
  @ protocol_layer "chord_proto"
  @ protocol_layer "hieras_proto"
  @ List.map (fun k -> layer (netspan_name k) "count" Lower) Obs.Netspan.all_kinds
  @ [
      layer "kv.replicate_msgs" "count" Lower;
      layer "kv.replicate_share" "ratio" Lower;
      layer "kv.repair_rounds" "count" Lower;
      layer "kv.handoffs" "count" Lower;
      layer "kv.promotions" "count" Lower;
      layer "kv.pruned" "count" Lower;
      layer "kv.read_repairs" "count" Lower;
      layer "kv.items_live" "count" Higher;
      layer "cache.find_ns" "ns" Lower;
      layer "cache.insert_ns" "ns" Lower;
      layer "cache.hits" "count" Higher;
      layer "cache.evictions" "count" Lower;
      layer "cache.expirations" "count" Lower;
      layer "obs.trace_overhead_pct" "%" Lower;
      layer "obs.netspan_attached_overhead_pct" "%" Lower;
      layer "latency_ratio" "ratio" Lower;
      layer "lookup_samples" "count" Higher;
      layer "put_fail_ratio" "ratio" Lower;
      layer "get_fail_ratio" "ratio" Lower;
      layer "get_p50_ms" "ms" Lower;
      layer "get_p99_ms" "ms" Lower;
      layer "get_samples" "count" Higher;
      layer "hit_rate" "ratio" Higher;
    ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun m -> m.name = name) all
let expected ~trace = if trace then per_layer else end_to_end
