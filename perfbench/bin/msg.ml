(* The message-level harness shared by ring-soak and kv-zipf: one view over
   both protocols, the engine driven in one-second slices, and the
   accounting of time spent in the engine versus in the benchmark's own
   checks. *)

module Engine = Simnet.Engine
module Id = Hashid.Id
module Span = Perfbench.Span
module Report = Perfbench.Report

let space = Id.space ~bits:32
let topology_seed = 2003

(* HIERAS layers in every message workload. *)
let depth = 2

type answer = { owner_id : Id.t; hops : int; retries : int }

type proto = {
  pname : string;  (** metric prefix: chord_proto or hieras_proto *)
  spawn : addr:int -> id:Id.t -> unit;
  join : addr:int -> id:Id.t -> bootstrap:int -> unit;
  fail : int -> unit;
  is_member : int -> bool;
  live : unit -> int list;
  node_id : int -> Id.t;
  global_succ : int -> int option;
  lookup : origin:int -> key:Id.t -> (answer option -> unit) -> unit;
  export : Obs.Metrics.t -> unit;
  detectors : unit -> Simnet.Stability.t list;
  converged : unit -> bool;
  substrate : unit -> Store.Kv.substrate;
}

let chord eng =
  let c = Chord.Protocol.create (Chord.Protocol.default_config space) eng in
  {
    pname = "chord_proto";
    spawn = (fun ~addr ~id -> Chord.Protocol.spawn c ~addr ~id);
    join = (fun ~addr ~id ~bootstrap -> Chord.Protocol.join c ~addr ~id ~bootstrap);
    fail = Chord.Protocol.fail_node c;
    is_member = Chord.Protocol.is_member c;
    live = (fun () -> Chord.Protocol.live_members c);
    node_id = Chord.Protocol.node_id c;
    global_succ = Chord.Protocol.successor_addr c;
    lookup =
      (fun ~origin ~key k ->
        Chord.Protocol.lookup c ~origin ~key (fun r ->
            k
              (Option.map
                 (fun (o : Chord.Protocol.lookup_outcome) ->
                   { owner_id = o.owner_id; hops = o.hops; retries = o.retries })
                 r)));
    export = Chord.Protocol.export_metrics ~prefix:"chord_proto" c;
    detectors = (fun () -> [ Chord.Protocol.stability c ]);
    converged = (fun () -> Chord.Protocol.converged c);
    substrate = (fun () -> Store.Kv.chord_substrate c);
  }

let hieras eng ~lat ~landmarks =
  let h = Hieras.Hprotocol.create (Hieras.Hprotocol.default_config space ~depth) eng ~lat ~landmarks in
  {
    pname = "hieras_proto";
    spawn = (fun ~addr ~id -> Hieras.Hprotocol.spawn h ~addr ~id);
    join = (fun ~addr ~id ~bootstrap -> Hieras.Hprotocol.join h ~addr ~id ~bootstrap);
    fail = Hieras.Hprotocol.fail_node h;
    is_member = Hieras.Hprotocol.is_member h;
    live = (fun () -> Hieras.Hprotocol.live_members h);
    node_id = Hieras.Hprotocol.node_id h;
    global_succ = (fun a -> Hieras.Hprotocol.successor_addr h a ~layer:1);
    lookup =
      (fun ~origin ~key k ->
        Hieras.Hprotocol.lookup h ~origin ~key (fun r ->
            k
              (Option.map
                 (fun (o : Hieras.Hprotocol.lookup_outcome) ->
                   { owner_id = o.owner_id; hops = o.hops; retries = 0 })
                 r)));
    export = Hieras.Hprotocol.export_metrics ~prefix:"hieras_proto" h;
    detectors = (fun () -> List.init depth (fun i -> Hieras.Hprotocol.stability h ~layer:(i + 1)));
    converged = (fun () -> Hieras.Hprotocol.converged h);
    substrate = (fun () -> Store.Kv.hieras_substrate h);
  }

(* A message workload's fixed deployment: a TS topology and spread
   landmarks from seed 2003, node identifiers hashed from their names, and
   the build times of the topology and the landmark choice. *)
type deployment = {
  lat : Topology.Latency.t;
  landmarks : Binning.Landmark.t;
  names : string array;
  ids : Id.t array;
  topology_s : float;
  binning_s : float;
}

let deployment ~pool =
  let lat, topology_s =
    Util.timed (fun () ->
        Topology.Transit_stub.generate ~hosts:pool (Prng.Rng.create ~seed:topology_seed))
  in
  let landmarks, binning_s =
    Util.timed (fun () ->
        Binning.Landmark.choose_spread lat ~count:4 (Prng.Rng.create ~seed:(topology_seed + 5)))
  in
  let names = Array.init pool (Printf.sprintf "peer-%d") in
  { lat; landmarks; names; ids = Array.map (Id.of_hash space) names; topology_s; binning_s }

(* A latency closure that counts its calls and keeps the first pairs, so
   the oracle's cost on the engine's real access pattern can be timed
   afterwards without a clock read per call. *)
type oracle_tap = { mutable calls : int; pairs : (int * int) array; mutable kept : int }

let tap_oracle lat =
  let tap = { calls = 0; pairs = Array.make 100_000 (0, 0); kept = 0 } in
  let f a b =
    tap.calls <- tap.calls + 1;
    if tap.kept < Array.length tap.pairs then begin
      tap.pairs.(tap.kept) <- (a, b);
      tap.kept <- tap.kept + 1
    end;
    Topology.Latency.host_latency lat a b
  in
  (tap, f)

(* [Plain] is the untraced engine. [Netspan_only] attaches the library's
   message tracer at sample rate 0: exact per-kind counts, nothing
   written. [Traced] also counts the latency closure's calls. *)
type mode = Plain | Netspan_only | Traced

let engine ~mode dep =
  let tap, latency =
    match mode with
    | Traced ->
        let tap, f = tap_oracle dep.lat in
        (Some tap, f)
    | Plain | Netspan_only -> (None, Topology.Latency.host_latency dep.lat)
  in
  let eng = Engine.create ~latency ~nodes:(Array.length dep.ids) in
  let netspan =
    match mode with
    | Plain -> Obs.Netspan.disabled
    | Netspan_only | Traced -> Obs.Netspan.jsonl ~sample:0.0 ignore
  in
  Engine.attach_netspan eng netspan;
  (eng, netspan, tap)

(* Everything one engine run accumulates. [run_s] is wall time inside
   [Engine.run]; [harness_s] is the part of it spent in the benchmark's
   own audits and checks, which throughput excludes. *)
type ctx = {
  eng : Engine.t;
  spans : Span.t;
  reg : Obs.Metrics.t;
  mutable run_s : float;
  mutable harness_s : float;
  mutable pending_max : int;
  mutable live_node_s : float;  (** integral of live members over simulated seconds *)
  mutable first_stable_ms : float option;
  mutable sim_ms : float;
}

let create_ctx ~eng ~spans =
  {
    eng;
    spans;
    reg = Obs.Metrics.create ();
    run_s = 0.0;
    harness_s = 0.0;
    pending_max = 0;
    live_node_s = 0.0;
    first_stable_ms = None;
    sim_ms = 0.0;
  }

let harness ctx f =
  let t0 = Util.now () in
  Fun.protect f ~finally:(fun () -> ctx.harness_s <- ctx.harness_s +. (Util.now () -. t0))

let slice_ms = 1000.0

let run_until ctx p ~until =
  while ctx.sim_ms < until do
    let next = Float.min until (ctx.sim_ms +. slice_ms) in
    let (), dt =
      Util.timed (fun () ->
          Span.with_span ctx.spans ~layer:"simnet" "engine.run" (fun () ->
              Engine.run ~until:next ctx.eng))
    in
    ctx.run_s <- ctx.run_s +. dt;
    let live = List.length (p.live ()) in
    ctx.live_node_s <- ctx.live_node_s +. (float_of_int live *. (next -. ctx.sim_ms) /. 1000.0);
    if ctx.first_stable_ms = None && p.converged () then ctx.first_stable_ms <- Some next;
    Engine.export_metrics ctx.eng ctx.reg;
    ctx.pending_max <-
      max ctx.pending_max
        (Obs.Metrics.counter_value (Obs.Metrics.counter ctx.reg "simnet.pending_events"));
    ctx.sim_ms <- next
  done

(* Wall seconds of engine work: the run minus the benchmark's own checks. *)
let engine_s ctx = ctx.run_s -. ctx.harness_s

(* Members sorted by identifier — the ideal ring the audits compare with
   and the owner oracle lookups are checked against. *)
let sorted_members p =
  let members = Array.of_list (p.live ()) in
  Array.sort (fun a b -> Id.compare (p.node_id a) (p.node_id b)) members;
  members

(* The global ring is correct when every live member's successor pointer
   is the next live member in identifier order. *)
let ring_correct p =
  let arr = sorted_members p in
  let n = Array.length arr in
  let ok = ref true in
  if n > 1 then
    Array.iteri (fun i a -> if p.global_succ a <> Some arr.((i + 1) mod n) then ok := false) arr;
  !ok

let sorted_live_ids p = Array.map p.node_id (sorted_members p)

(* Message and timer events the engine dispatched (god-events excluded). *)
let events ctx =
  let e = ctx.eng in
  Engine.delivered e + Engine.timers_fired e + Engine.dropped_dead e

(* Engine counters, times and per-kind message counts, summed over every
   cell exported into [rep], and the cell protocol's own maintenance and
   stability counters, under the metric names of Spec. *)
let export_layers rep ctx p ~netspan =
  let e = ctx.eng in
  let add name v = Report.set rep name (Report.get rep name +. v) in
  let addi name v = add name (float_of_int v) in
  addi "engine.events" (events ctx);
  addi "engine.sent" (Engine.sent e);
  addi "engine.timers_set" (Engine.timers_set e);
  addi "engine.dropped_loss" (Engine.dropped_loss e);
  addi "engine.dropped_dead" (Engine.dropped_dead e);
  Report.seti rep "engine.pending_max"
    (max ctx.pending_max (int_of_float (Report.get rep "engine.pending_max")));
  add "engine.run_s" (engine_s ctx);
  Report.set rep "engine.ns_per_event"
    (Report.get rep "engine.run_s" *. 1e9 /. Float.max 1.0 (Report.get rep "engine.events"));
  List.iter
    (fun k -> addi (Perfbench.Spec.netspan_name k) (Obs.Netspan.kind_count netspan k))
    Obs.Netspan.all_kinds;
  let reg = Obs.Metrics.create () in
  p.export reg;
  let snap = Obs.Metrics.snapshot reg in
  let counter name =
    match Obs.Metrics.find snap name with Some (Obs.Metrics.Counter v) -> v | _ -> 0
  in
  List.iter
    (fun m ->
      let name = p.pname ^ ".maint." ^ m in
      if Perfbench.Spec.find name <> None then Report.seti rep name (counter name))
    [ "stabilize"; "notify"; "fix_fingers"; "check_pred"; "ring" ];
  let dets = p.detectors () in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 dets in
  Report.seti rep (p.pname ^ ".stability.observations") (sum Simnet.Stability.observations);
  Report.seti rep (p.pname ^ ".stability.changes") (sum Simnet.Stability.changes);
  Report.seti rep (p.pname ^ ".stability.disturbances") (sum Simnet.Stability.disturbances);
  (* censored at the end of the run when the ring never declared itself stable *)
  Report.set rep (p.pname ^ ".first_stable_s")
    (Option.value ctx.first_stable_ms ~default:ctx.sim_ms /. 1000.0);
  Report.set rep (p.pname ^ ".us_per_msg")
    (if Engine.sent e = 0 then 0.0 else engine_s ctx *. 1e6 /. float_of_int (Engine.sent e));
  Report.set rep (p.pname ^ ".msgs_per_node_s")
    (if ctx.live_node_s = 0.0 then 0.0 else float_of_int (Engine.sent e) /. ctx.live_node_s)

let report_oracle_tap rep lat tap =
  Report.seti rep "oracle.calls" (int_of_float (Report.get rep "oracle.calls") + tap.calls);
  if tap.kept > 0 then
    Report.set rep "oracle.ns_per_call"
      (Util.ns_per_call ~n:tap.kept (fun i ->
           let a, b = tap.pairs.(i) in
           Topology.Latency.host_latency lat a b))

(* Analytic Chord and HIERAS networks built over the deployment's nodes,
   then the direct-call probes on this workload's requests, keys and
   host pairs. *)
let pool_probes rep ~spans dep (reqs : Probes.request array) ~keys ~pairs =
  let hosts = Array.init (Array.length dep.ids) Fun.id in
  let net, chord_s = Util.timed (fun () -> Chord.Network.of_ids ~space ~ids:dep.ids ~hosts ()) in
  Report.set rep "chord.build_s" chord_s;
  Report.seti rep "chord.bytes_resident" (Chord.Network.bytes_resident net);
  let hnet, hieras_s =
    Util.timed (fun () ->
        Hieras.Hnetwork.build ~chord:net ~lat:dep.lat ~landmarks:dep.landmarks ~depth ())
  in
  Report.set rep "hieras.build_s" hieras_s;
  Report.seti rep "hieras.bytes_resident" (Hieras.Hnetwork.bytes_resident hnet);
  let bad = Probes.analytic rep ~spans ~net ~lat:dep.lat ~hnet reqs in
  Report.check rep (bad = 0) "Hieras.Make disagrees with Hlookup on sampled requests";
  Probes.hashid rep ~space ~names:dep.names ~ids:dep.ids ~keys;
  Probes.oracle rep dep.lat ~pairs;
  Probes.cache rep ~keys;
  Probes.engine_noop rep ~depth:(int_of_float (Report.get rep "engine.pending_max"))
