(* ring-soak: Chord.Protocol and Hieras.Hprotocol on the same topology,
   churn trace, loss stream and crash, shaped like Experiments.Soak's cell
   (half the pool joined, factor-1 churn, 1% loss, 30 s horizon) plus a
   20% engine-level crash at mid-horizon and 100 lookups per simulated
   second, so each protocol answers thousands. One round runs both cells
   on the seed's input set; rounds repeat until the run's time is spent. *)

module Engine = Simnet.Engine
module Id = Hashid.Id
module Report = Perfbench.Report
module Span = Perfbench.Span
module Ops = Perfbench.Ops
module Churn = Workload.Churn

let pool = 200
let initial = 100
let join_every_ms = 100.0
let horizon_ms = 30_000.0
let loss = 0.01
let crash_frac = 0.2
let audit_every_ms = 1000.0
let lookup_every_ms = 10.0
let settle_ms = (float_of_int initial *. join_every_ms) +. 10_000.0
let cooldown_ms = 20_000.0
let end_ms = settle_ms +. horizon_ms +. cooldown_ms

type inputs = {
  dep : Msg.deployment;
  churn : Churn.event list;
  lookups : (int * Id.t) array;  (** origin draw, key *)
  victim_order : int array;  (** crash preference order over addresses *)
  loss_seed : int;
}

(* The topology and node identifiers are the workload's fixed deployment;
   churn, loss, crash victims and lookups come from the seed. *)
let make_inputs seed =
  let dep = Msg.deployment ~pool in
  let d = Experiments.Soak.default_spec in
  let churn =
    Churn.generate
      {
        Churn.horizon = horizon_ms;
        join_rate = d.Experiments.Soak.join_rate;
        fail_rate = d.Experiments.Soak.fail_rate;
        leave_rate = d.Experiments.Soak.leave_rate;
      }
      ~initial ~pool
      (Prng.Rng.create ~seed:(Util.sub_seed seed 1))
  in
  let rng = Prng.Rng.create ~seed:(Util.sub_seed seed 2) in
  let lookups =
    Array.init
      (int_of_float (horizon_ms /. lookup_every_ms))
      (fun _ ->
        let u = Prng.Rng.int rng 1_000_000_000 in
        (u, Id.random Msg.space rng))
  in
  let victim_order = Array.init pool Fun.id in
  Prng.Dist.shuffle (Prng.Rng.create ~seed:(Util.sub_seed seed 3)) victim_order;
  { dep; churn; lookups; victim_order; loss_seed = Util.sub_seed seed 4 }

(* A cell's outcome: small, so rounds can be kept without keeping the
   engine and protocol state they ran on. *)
type cell = {
  name : string;  (** protocol metric prefix *)
  ops : Ops.summary;
  latencies : float array;  (** issue-to-answer, simulated ms, answered lookups *)
  hops : int;
  retries : int;
  audits : int;
  audits_ok : int;
  sent : int;
  engine_s : float;
  sim_s : float;
}

(* What the traced run reads after a cell: the engine, protocol and tracers. *)
type state = {
  ctx : Msg.ctx;
  proto : Msg.proto;
  netspan : Obs.Netspan.t;
  tap : Msg.oracle_tap option;
}

(* Builds a cell — engine, protocol and every scheduled input — and
   returns the function that runs it. *)
let build_cell ~spans ~mode inp ~algo =
  let eng, netspan, tap = Msg.engine ~mode inp.dep in
  Engine.set_loss eng ~rate:loss ~rng:(Prng.Rng.create ~seed:inp.loss_seed);
  let spans = if mode = Msg.Traced then spans else Span.disabled in
  let ctx = Msg.create_ctx ~eng ~spans in
  let p =
    match algo with
    | `Chord -> Msg.chord eng
    | `Hieras -> Msg.hieras eng ~lat:inp.dep.lat ~landmarks:inp.dep.landmarks
  in
  p.Msg.spawn ~addr:0 ~id:inp.dep.ids.(0);
  for i = 1 to initial - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. join_every_ms) (fun () ->
        p.Msg.join ~addr:i ~id:inp.dep.ids.(i) ~bootstrap:0)
  done;
  List.iter
    (fun (e : Churn.event) ->
      Engine.schedule eng ~delay:(settle_ms +. e.at) (fun () ->
          match e.kind with
          | Churn.Join ->
              if not (p.Msg.is_member e.node) then begin
                match p.Msg.live () with
                | b :: _ -> p.Msg.join ~addr:e.node ~id:inp.dep.ids.(e.node) ~bootstrap:b
                | [] -> ()
              end
          | Churn.Fail | Churn.Leave -> if p.Msg.is_member e.node then p.Msg.fail e.node))
    inp.churn;
  (* engine-level crash: the protocol is not told, its probes must notice *)
  Engine.schedule eng ~delay:(settle_ms +. (horizon_ms /. 2.0)) (fun () ->
      let live = p.Msg.live () in
      let k = int_of_float (crash_frac *. float_of_int (List.length live)) in
      let killed = ref 0 in
      Array.iter
        (fun a ->
          if !killed < k && p.Msg.is_member a then begin
            Engine.kill eng a;
            incr killed
          end)
        inp.victim_order);
  let audits = ref 0 and audits_ok = ref 0 in
  for k = 1 to int_of_float (horizon_ms /. audit_every_ms) do
    Engine.schedule eng ~delay:(settle_ms +. (float_of_int k *. audit_every_ms)) (fun () ->
        Msg.harness ctx (fun () ->
            Span.with_span spans ~layer:"audit" "ring.audit" (fun () ->
                incr audits;
                if Msg.ring_correct p then incr audits_ok)))
  done;
  let ops = Ops.create () in
  let lat_samples = ref [] and hops = ref 0 and retries = ref 0 in
  Array.iteri
    (fun j (u, key) ->
      Engine.schedule eng ~delay:(settle_ms +. (float_of_int (j + 1) *. lookup_every_ms)) (fun () ->
          match p.Msg.live () with
          | [] -> ()
          | live ->
              let origin = List.nth live (u mod List.length live) in
              let id = Ops.issue ops ~origin in
              let sp = Span.start_async spans ~layer:p.Msg.pname "lookup" in
              let t0 = Engine.now eng in
              p.Msg.lookup ~origin ~key (fun r ->
                  Span.finish_async spans sp;
                  match r with
                  | None -> Ops.complete ops id Ops.Failed
                  | Some a ->
                      lat_samples := (Engine.now eng -. t0) :: !lat_samples;
                      hops := !hops + a.Msg.hops;
                      retries := !retries + a.Msg.retries;
                      let ok =
                        Msg.harness ctx (fun () ->
                            Perfbench.Checks.owner_ok ~sorted_ids:(Msg.sorted_live_ids p) ~key
                              ~owner:a.Msg.owner_id)
                      in
                      Ops.complete ops id (if ok then Ops.Ok else Ops.Wrong))))
    inp.lookups;
  fun () ->
    Msg.run_until ctx p ~until:end_ms;
    ( {
        name = p.Msg.pname;
        ops = Ops.summary ops ~alive:(Engine.is_alive eng);
        latencies = Array.of_list (List.rev !lat_samples);
        hops = !hops;
        retries = !retries;
        audits = !audits;
        audits_ok = !audits_ok;
        sent = Engine.sent eng;
        engine_s = Msg.engine_s ctx;
        sim_s = ctx.Msg.sim_ms /. 1000.0;
      },
      { ctx; proto = p; netspan; tap } )

(* What must repeat exactly when the same inputs run again. *)
let signature c =
  ( c.sent,
    c.ops,
    c.audits_ok,
    Array.fold_left ( +. ) 0.0 c.latencies )

type round = { chord : cell; hieras : cell }

(* Everything before the first Engine.run: the input set and both cells. *)
let setup ~spans ~mode seed =
  let inp = make_inputs seed in
  (inp, build_cell ~spans ~mode inp ~algo:`Chord, build_cell ~spans ~mode inp ~algo:`Hieras)

let run_round (_, chord, hieras) = { chord = fst (chord ()); hieras = fst (hieras ()) }

let round_engine_s r = r.chord.engine_s +. r.hieras.engine_s
let round_sim_s r = r.chord.sim_s +. r.hieras.sim_s
let answered c = c.ops.Ops.ok + c.ops.Ops.wrong

(* Lookups whose callback fired, with an answer or a reported failure. *)
let resolved c = answered c + c.ops.Ops.failed

let check_cell rep c =
  let s = c.ops in
  let name = c.name in
  Report.check rep (Ops.balanced s) (name ^ ": lookup accounting does not balance");
  Report.check rep (s.Ops.never = 0)
    (Printf.sprintf "%s: %d lookups from live origins were never called back" name s.Ops.never);
  Report.check rep (s.Ops.doubles = 0)
    (Printf.sprintf "%s: %d lookups were called back twice" name s.Ops.doubles);
  Report.count_ops rep ~attempted:s.Ops.issued ~failed:(Ops.broken s)

let mean_latency c =
  if Array.length c.latencies = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 c.latencies /. float_of_int (Array.length c.latencies)

let quality rep c =
  let name = c.name in
  Report.set rep (name ^ ".lookup_fail_ratio") (Ops.fail_ratio c.ops);
  Report.set rep (name ^ ".ring_ok_ratio")
    (if c.audits = 0 then 0.0 else float_of_int c.audits_ok /. float_of_int c.audits);
  Report.set rep (name ^ ".lookup_hops_mean")
    (float_of_int c.hops /. float_of_int (max 1 (answered c)));
  if name = "chord_proto" then Report.seti rep "chord_proto.lookup_retries" c.retries

let describe c =
  Util.log "  %-13s lookups %d ok %d wrong %d failed %d lost %d never %d | ring ok %d/%d | sent %d"
    c.name c.ops.Ops.issued c.ops.Ops.ok c.ops.Ops.wrong c.ops.Ops.failed c.ops.Ops.lost c.ops.Ops.never
    c.audits_ok c.audits c.sent

let setup_reps = 10
let min_rounds = 3

let untraced rep ~seed ~seconds =
  let seed = Util.sub_seed seed 0 in
  let plain () = setup ~spans:Span.disabled ~mode:Msg.Plain seed in
  (* set-up is timed in every round, so it samples the whole run *)
  let setup_times = ref [] in
  let rounds, rss =
    Util.rounds rep ~min:min_rounds ~seconds
      ~round:(fun () ->
        let built, setup_s = Util.repeated_setup ~reps:setup_reps plain in
        setup_times := setup_s :: !setup_times;
        run_round built)
      ~signature:(fun r -> (signature r.chord, signature r.hieras))
  in
  List.iter (fun r -> List.iter (check_cell rep) [ r.chord; r.hieras ]) rounds;
  Report.set rep "setup_s" (Perfbench.Pct.median !setup_times);
  let first = List.hd rounds in
  List.iter describe [ first.chord; first.hieras ];
  let per_round f = Perfbench.Pct.median (List.map f rounds) in
  Report.set rep "sim_s_per_wall_s" (per_round (fun r -> round_sim_s r /. round_engine_s r));
  Report.set rep "lookups_per_s"
    (per_round (fun r -> float_of_int (resolved r.chord + resolved r.hieras) /. round_engine_s r));
  let latencies = first.hieras.latencies in
  (match (Perfbench.Pct.checked latencies 0.5, Perfbench.Pct.checked latencies 0.99) with
  | Some p50, Some p99 ->
      Report.set rep "lookup_p50_ms" p50;
      Report.set rep "lookup_p99_ms" p99;
      Util.log "  %s"
        (Perfbench.Pct.describe ~what:"HIERAS lookup latency" ~median:p50
           ~tail:(Perfbench.Pct.highest_tail latencies))
  | _ -> Report.reject rep "too few answered operations for a p99");
  Util.log "  %d rounds, simulated s per wall s: %s" (List.length rounds)
    (String.concat " "
       (List.map (fun r -> Printf.sprintf "%.1f" (round_sim_s r /. round_engine_s r)) rounds));
  Report.set rep "peak_rss_mb" rss

let traced rep ~spans ~seed =
  let seed = Util.sub_seed seed 0 in
  let inp, run_chord, run_hieras =
    Span.with_span spans ~layer:"setup" "setup" (fun () -> setup ~spans ~mode:Msg.Traced seed)
  in
  Report.set rep "topology.build_s" inp.dep.topology_s;
  Report.set rep "binning.build_s" inp.dep.binning_s;
  let plain = run_round (setup ~spans ~mode:Msg.Plain seed) in
  let with_netspan = run_round (setup ~spans ~mode:Msg.Netspan_only seed) in
  let chord, chord_state = run_chord () in
  let hieras, hieras_state = run_hieras () in
  let full = { chord; hieras } in
  let sig_of r = (signature r.chord, signature r.hieras) in
  Report.check rep
    (sig_of plain = sig_of with_netspan && sig_of plain = sig_of full)
    "tracing changed the simulation's results";
  Report.set rep "obs.netspan_attached_overhead_pct"
    (Util.pct_overhead ~base:(round_engine_s plain) ~traced:(round_engine_s with_netspan));
  List.iter
    (fun (c, st) ->
      check_cell rep c;
      quality rep c;
      Msg.export_layers rep st.ctx st.proto ~netspan:st.netspan;
      Option.iter (Msg.report_oracle_tap rep inp.dep.lat) st.tap)
    [ (chord, chord_state); (hieras, hieras_state) ];
  Report.set rep "latency_ratio" (mean_latency full.hieras /. mean_latency full.chord);
  Report.seti rep "lookup_samples" (Array.length full.hieras.latencies);
  Util.log "  untraced round %.3f s, netspan attached %.3f s, fully traced %.3f s"
    (round_engine_s plain) (round_engine_s with_netspan) (round_engine_s full);
  Msg.pool_probes rep ~spans inp.dep
    (Array.map (fun (u, key) -> { Probes.origin = u mod pool; key }) inp.lookups)
    ~keys:(Array.map snd inp.lookups)
    ~pairs:(Array.map (fun (u, _) -> (u mod pool, u / pool mod pool)) inp.lookups)
