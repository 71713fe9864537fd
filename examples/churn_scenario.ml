(* Protocol-level churn scenario.

   Runs the full message-driven HIERAS protocol on the event simulator:
   nodes join through a bootstrap peer (landmark pings, top-layer Chord
   join, ring-table lookup, per-ring finger creation), some fail silently,
   some leave, messages are randomly dropped — and lookups keep resolving
   to the correct owner throughout.

   Run with: dune exec examples/churn_scenario.exe *)

module Id = Hashid.Id
module Engine = Simnet.Engine

let () =
  let pool = 48 in
  let initial = 12 in
  let rng = Prng.Rng.create ~seed:77 in
  let lat = Topology.Transit_stub.generate ~hosts:pool rng in
  let latency a b = Topology.Latency.host_latency lat a b in
  let eng = Engine.create ~latency ~nodes:pool in
  Engine.set_loss eng ~rate:0.01 ~rng:(Prng.Rng.split rng);

  let space = Id.space ~bits:32 in
  let landmarks = Binning.Landmark.choose_spread lat ~count:3 (Prng.Rng.split rng) in
  let cfg = Hieras.Hprotocol.default_config space ~depth:2 in
  let p = Hieras.Hprotocol.create cfg eng ~lat ~landmarks in
  let id_of i = Id.of_hash space (Printf.sprintf "peer-%d" i) in

  (* initial population joins sequentially *)
  Hieras.Hprotocol.spawn p ~addr:0 ~id:(id_of 0);
  for i = 1 to initial - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 400.0) (fun () ->
        Hieras.Hprotocol.join p ~addr:i ~id:(id_of i) ~bootstrap:0)
  done;
  Engine.run ~until:30_000.0 eng;
  Printf.printf "t=30s: %d members, global ring %d nodes\n"
    (List.length (Hieras.Hprotocol.live_members p))
    (List.length (Hieras.Hprotocol.ring_from p 0 ~layer:1));

  (* churn: joins, silent failures and leaves over a minute *)
  let spec =
    { Workload.Churn.horizon = 60_000.0; join_rate = 0.25; fail_rate = 0.08; leave_rate = 0.04 }
  in
  let events = Workload.Churn.generate spec ~initial ~pool (Prng.Rng.split rng) in
  Printf.printf "replaying %d churn events...\n" (List.length events);
  List.iter
    (fun e ->
      Engine.schedule eng ~delay:e.Workload.Churn.at (fun () ->
          match e.Workload.Churn.kind with
          | Workload.Churn.Join ->
              if not (Hieras.Hprotocol.is_member p e.Workload.Churn.node) then begin
                match Hieras.Hprotocol.live_members p with
                | b :: _ ->
                    Hieras.Hprotocol.join p ~addr:e.Workload.Churn.node
                      ~id:(id_of e.Workload.Churn.node) ~bootstrap:b
                | [] -> ()
              end
          | Workload.Churn.Fail | Workload.Churn.Leave ->
              if Hieras.Hprotocol.is_member p e.Workload.Churn.node then
                Hieras.Hprotocol.fail_node p e.Workload.Churn.node))
    events;

  (* lookups fired throughout the churn window *)
  let issued = ref 0 and answered = ref 0 and correct = ref 0 in
  let check_rng = Prng.Rng.split rng in
  for k = 1 to 60 do
    Engine.schedule eng ~delay:(float_of_int k *. 1000.0) (fun () ->
        match Hieras.Hprotocol.live_members p with
        | [] -> ()
        | members ->
            let arr = Array.of_list members in
            let origin = arr.(Prng.Rng.int check_rng (Array.length arr)) in
            let key = Id.random space check_rng in
            incr issued;
            Hieras.Hprotocol.lookup p ~origin ~key (fun r ->
                match r with
                | None -> ()
                | Some o ->
                    incr answered;
                    (* under churn, count answers whose owner is still a
                       live member when the reply arrives *)
                    let owner = o.Hieras.Hprotocol.owner_id in
                    if
                      List.exists
                        (fun m -> Id.equal (Hieras.Hprotocol.node_id p m) owner)
                        (Hieras.Hprotocol.live_members p)
                    then incr correct))
  done;
  Engine.run ~until:120_000.0 eng;
  Printf.printf "t=120s: %d members alive\n" (List.length (Hieras.Hprotocol.live_members p));
  Printf.printf "lookups: issued %d, answered %d, answered-by-live-member %d\n" !issued !answered
    !correct;
  Printf.printf "messages: sent %d, delivered %d, lost %d, to-dead %d\n" (Engine.sent eng)
    (Engine.delivered eng) (Engine.dropped_loss eng) (Engine.dropped_dead eng)
