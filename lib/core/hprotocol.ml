module Id = Hashid.Id
module Engine = Simnet.Engine
module Netspan = Obs.Netspan

type config = {
  space : Id.space;
  depth : int;
  stabilize_every : float;
  fix_fingers_every : float;
  check_pred_every : float;
  fingers_per_round : int;
  succ_list_len : int;
  rpc_timeout : float;
  lookup_retries : int;
  ring_check_every : float;
  stability_k : int;
  adaptive : bool;
  backoff_max : float;
}

let default_config space ~depth =
  {
    space;
    depth;
    stabilize_every = 500.0;
    fix_fingers_every = 500.0;
    check_pred_every = 1000.0;
    fingers_per_round = 8;
    succ_list_len = 4;
    rpc_timeout = 2000.0;
    lookup_retries = 3;
    ring_check_every = 2000.0;
    stability_k = 3;
    adaptive = false;
    backoff_max = 8.0;
  }

type peer = { paddr : int; pid : Id.t }

type layer_state = {
  mutable pred : peer option;
  mutable succs : peer list;
  fingers : peer option array;
  mutable next_finger : int;
  mutable succ_suspect : int;
      (* consecutive stabilize timeouts against the current successor *)
}

type pnode = {
  addr : int;
  id : Id.t;
  orders : string array; (* orders.(k-1) = ring name digits at paper layer k+1 *)
  layers : layer_state array; (* layers.(0) = global *)
  stored : (string, Ring_table.t) Hashtbl.t; (* key = Ring_name.to_string *)
  replicas : (string, Ring_table.t) Hashtbl.t;
      (* backup copies pushed by the table's manager ("duplicated on several
         nodes for fault tolerance", paper §3.1); promoted to [stored] when
         ownership of the hashed ring name passes to this node *)
  mutable anchor : int;
      (* re-entry point (bootstrap) for recovering from a marooned global
         self-ring; lower layers recover through ring_refresh instead *)
  mutable stabilize_rounds : int;
}

type t = {
  cfg : config;
  eng : Engine.t;
  lat : Topology.Latency.t;
  landmarks : Binning.Landmark.t;
  chain : Binning.Scheme.thresholds array;
  nodes : (int, pnode) Hashtbl.t;
  stabs : Simnet.Stability.t array; (* stabs.(layer-1) = that layer's detector *)
  mutable scale : float; (* current maintenance-interval multiplier, >= 1 *)
  mutable probing : bool; (* fingerprint probe loop started *)
  mutable members : int list; (* cached live_members, valid while both counts below hold *)
  mutable members_size : int; (* Hashtbl.length nodes when cached *)
  mutable members_moves : int; (* engine deaths + revivals when cached *)
  mutable maint_stabilize : int;
  mutable maint_notify : int;
  mutable maint_fix_fingers : int;
  mutable maint_check_pred : int;
  mutable maint_ring : int;
  ts_collector : Obs.Timeseries.t;
  ts_members : Obs.Timeseries.series;
  ts_joins : Obs.Timeseries.series;
  ts_join_done : Obs.Timeseries.series;
  ts_fails : Obs.Timeseries.series;
  ts_rings : Obs.Timeseries.series array; (* ts_rings.(k-2) = layer-k ring count *)
  ts_maint : Obs.Timeseries.series;
  ts_scale : Obs.Timeseries.series;
  ts_stable : Obs.Timeseries.series;
}

let create ?(ts = Obs.Timeseries.disabled) cfg eng ~lat ~landmarks =
  if cfg.depth < 2 then invalid_arg "Hprotocol.create: depth must be >= 2";
  if cfg.stability_k < 1 then invalid_arg "Hprotocol.create: stability_k must be >= 1";
  if cfg.backoff_max < 1.0 then invalid_arg "Hprotocol.create: backoff_max must be >= 1";
  {
    cfg;
    eng;
    lat;
    landmarks;
    chain = Binning.Scheme.refinement_chain ~depth:cfg.depth;
    nodes = Hashtbl.create 64;
    stabs = Array.init cfg.depth (fun _ -> Simnet.Stability.create ~k:cfg.stability_k ());
    scale = 1.0;
    probing = false;
    members = [];
    members_size = -1;
    members_moves = -1;
    maint_stabilize = 0;
    maint_notify = 0;
    maint_fix_fingers = 0;
    maint_check_pred = 0;
    maint_ring = 0;
    ts_collector = ts;
    ts_members = Obs.Timeseries.gauge ts "hieras.members";
    ts_joins = Obs.Timeseries.counter ts "hieras.joins";
    ts_join_done = Obs.Timeseries.counter ts "hieras.joins_completed";
    ts_fails = Obs.Timeseries.counter ts "hieras.fails";
    ts_rings =
      Array.init (cfg.depth - 1) (fun k ->
          Obs.Timeseries.gauge ts (Printf.sprintf "hieras.layer%d.rings" (k + 2)));
    ts_maint = Obs.Timeseries.counter ts "hieras.maint.ops";
    ts_scale = Obs.Timeseries.gauge ts "hieras.maint.scale";
    ts_stable = Obs.Timeseries.gauge ts "hieras.stable";
  }

let engine t = t.eng
let config t = t.cfg

let stability t ~layer =
  if layer < 1 || layer > t.cfg.depth then invalid_arg "Hprotocol.stability: layer out of range";
  t.stabs.(layer - 1)

let converged_layer t ~layer = Simnet.Stability.is_stable (stability t ~layer)
let converged t = Array.for_all Simnet.Stability.is_stable t.stabs
let interval_scale t = t.scale

let maintenance_ops t =
  t.maint_stabilize + t.maint_notify + t.maint_fix_fingers + t.maint_check_pred + t.maint_ring

(* one maintenance RPC initiated (stabilize ask, notify, finger fix, pred
   check, ring-table duty) — the unit the bandwidth-overhead series counts *)
let maint t field =
  (match field with
  | `Stabilize -> t.maint_stabilize <- t.maint_stabilize + 1
  | `Notify -> t.maint_notify <- t.maint_notify + 1
  | `Fix -> t.maint_fix_fingers <- t.maint_fix_fingers + 1
  | `Check -> t.maint_check_pred <- t.maint_check_pred + 1
  | `Ring -> t.maint_ring <- t.maint_ring + 1);
  Obs.Timeseries.add t.ts_maint ~at:(Engine.now t.eng) 1.0
let self_peer pn = { paddr = pn.addr; pid = pn.id }
let get t addr = Hashtbl.find t.nodes addr
let is_member t addr = Hashtbl.mem t.nodes addr && Engine.is_alive t.eng addr
let node_id t addr = (get t addr).id

let check_layer t layer =
  if layer < 1 || layer > t.cfg.depth then invalid_arg "Hprotocol: layer out of range"

let order_of t addr ~layer =
  check_layer t layer;
  if layer = 1 then invalid_arg "Hprotocol.order_of: the global ring has no order";
  (get t addr).orders.(layer - 2)

let layer_state pn ~layer = pn.layers.(layer - 1)

(* Membership + ring-count gauges, stamped with sim time. Walks the node
   table once per lifecycle event (join/spawn/fail) — rare next to message
   traffic, and a no-op when the collector is disabled. *)
let emit_churn t =
  if Obs.Timeseries.enabled t.ts_collector then begin
    let at = Engine.now t.eng in
    let live = ref 0 in
    let rings = Array.init (t.cfg.depth - 1) (fun _ -> Hashtbl.create 16) in
    Hashtbl.iter
      (fun addr pn ->
        if Engine.is_alive t.eng addr then begin
          incr live;
          Array.iteri (fun k order -> Hashtbl.replace rings.(k) order ()) pn.orders
        end)
      t.nodes;
    Obs.Timeseries.set t.ts_members ~at (float_of_int !live);
    Array.iteri
      (fun k s -> Obs.Timeseries.set s ~at (float_of_int (Hashtbl.length rings.(k))))
      t.ts_rings
  end

let successor_addr t addr ~layer =
  check_layer t layer;
  match (layer_state (get t addr) ~layer).succs with [] -> None | s :: _ -> Some s.paddr

let predecessor_addr t addr ~layer =
  check_layer t layer;
  Option.map (fun p -> p.paddr) (layer_state (get t addr) ~layer).pred

let successor_list_addrs t addr ~layer =
  check_layer t layer;
  List.map (fun p -> p.paddr) (layer_state (get t addr) ~layer).succs

let finger_addrs t addr ~layer =
  check_layer t layer;
  Array.map (Option.map (fun p -> p.paddr)) (layer_state (get t addr) ~layer).fingers

(* Deterministic digest of one layer's routing state across the live
   membership, visited in sorted address order (see Chord.Protocol). *)
let fingerprint t ~layer =
  let addrs =
    Hashtbl.fold (fun a _ acc -> a :: acc) t.nodes [] |> List.sort Stdlib.compare
  in
  let open Simnet.Stability in
  List.fold_left
    (fun acc addr ->
      if not (Engine.is_alive t.eng addr) then acc
      else begin
        let pn = Hashtbl.find t.nodes addr in
        let ls = layer_state pn ~layer in
        let acc = fp_add acc addr in
        let acc = fp_add acc (match ls.pred with None -> -1 | Some p -> p.paddr) in
        let acc = List.fold_left (fun acc p -> fp_add acc p.paddr) acc ls.succs in
        let acc = fp_add acc (-2) in
        Array.fold_left
          (fun acc f -> fp_add acc (match f with None -> -1 | Some p -> p.paddr))
          acc ls.fingers
      end)
    fp_init addrs

(* Fixed-cadence convergence probe (a god-event loop, message-free): one
   detector per layer; the adaptive backoff engages only when EVERY layer
   is stable and snaps back the moment any of them drifts. The probe
   cadence is never scaled, so detection latency stays bounded. *)
let rec probe t =
  let at = Engine.now t.eng in
  for layer = 1 to t.cfg.depth do
    Simnet.Stability.observe t.stabs.(layer - 1) ~at ~fingerprint:(fingerprint t ~layer)
  done;
  let all_stable = Array.for_all Simnet.Stability.is_stable t.stabs in
  if t.cfg.adaptive then
    t.scale <- (if all_stable then Float.min t.cfg.backoff_max (t.scale *. 2.0) else 1.0);
  Obs.Timeseries.set t.ts_scale ~at t.scale;
  Obs.Timeseries.set t.ts_stable ~at (if all_stable then 1.0 else 0.0);
  Engine.schedule t.eng ~delay:t.cfg.stabilize_every (fun () -> probe t)

let ensure_probe t =
  if not t.probing then begin
    t.probing <- true;
    Engine.schedule t.eng ~delay:t.cfg.stabilize_every (fun () -> probe t)
  end

(* a lifecycle event is about to change routing state on every layer:
   restart the convergence clocks and revert any backed-off interval *)
let perturb t =
  let at = Engine.now t.eng in
  Array.iter (fun s -> Simnet.Stability.perturb s ~at) t.stabs;
  t.scale <- 1.0

let ring_from t start ~layer =
  let guard = 2 * (Hashtbl.length t.nodes + 1) in
  let rec go addr acc n =
    if n > guard then List.rev acc
    else
      match successor_addr t addr ~layer with
      | None -> List.rev acc
      | Some s when s = start -> List.rev acc
      | Some s -> go s (s :: acc) (n + 1)
  in
  go start [ start ] 0

let stored_ring_tables t addr =
  Hashtbl.fold (fun _ rt acc -> rt :: acc) (get t addr).stored []

let replica_ring_tables t addr =
  Hashtbl.fold (fun _ rt acc -> rt :: acc) (get t addr).replicas []

let find_ring_table t rname =
  let key = Ring_name.to_string rname in
  Hashtbl.fold
    (fun addr pn acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if Engine.is_alive t.eng addr then
            Option.map (fun rt -> (addr, rt)) (Hashtbl.find_opt pn.stored key)
          else None)
    t.nodes None

(* Members are never removed from the table and liveness changes only
   through Engine.kill/revive, so the table size and the engine's
   transition count together say when the sorted list must be rebuilt. *)
let live_members t =
  let size = Hashtbl.length t.nodes and moves = Engine.deaths t.eng + Engine.revivals t.eng in
  if size <> t.members_size || moves <> t.members_moves then begin
    t.members <-
      Hashtbl.fold (fun a _ acc -> if Engine.is_alive t.eng a then a :: acc else acc) t.nodes []
      |> List.sort Stdlib.compare;
    t.members_size <- size;
    t.members_moves <- moves
  end;
  t.members

(* ---- generic request/response with timeout --------------------------- *)

(* [kind] labels the request span for the netspan tracer; the response leg
   is always a [Reply] (and a causal child of the request). *)
let ask t ~kind ~src ~dst ~service ~ok ~timeout =
  let settled = ref false in
  Engine.send t.eng ~kind ~src ~dst (fun () ->
      match Hashtbl.find_opt t.nodes dst with
      | None -> ()
      | Some pn ->
          let response = service pn in
          Engine.send t.eng ~kind:Netspan.Reply ~src:dst ~dst:src (fun () ->
              if not !settled then begin
                settled := true;
                ok response
              end));
  Engine.timer t.eng ~node:src ~delay:t.cfg.rpc_timeout (fun () ->
      if not !settled then begin
        settled := true;
        timeout ()
      end)

let expunge_layer ls bad =
  ls.succs <- List.filter (fun p -> p.paddr <> bad) ls.succs;
  (match ls.pred with Some p when p.paddr = bad -> ls.pred <- None | _ -> ());
  Array.iteri
    (fun i f -> match f with Some p when p.paddr = bad -> ls.fingers.(i) <- None | _ -> ())
    ls.fingers

let current_successor pn ls = match ls.succs with [] -> self_peer pn | s :: _ -> s

let closest_preceding pn ls ~key =
  let best = ref None in
  let consider p =
    if p.paddr <> pn.addr && Id.in_oo p.pid ~lo:pn.id ~hi:key then
      match !best with
      | Some b when Id.in_oo p.pid ~lo:b.pid ~hi:key -> best := Some p
      | Some _ -> ()
      | None -> best := Some p
  in
  Array.iter (function Some p -> consider p | None -> ()) ls.fingers;
  List.iter consider ls.succs;
  match !best with Some p -> p | None -> current_successor pn ls

(* ---- per-layer find_successor (recursive forwarding) ------------------ *)

(* [kind] is the span kind of the next message this cascade sends: the
   initiating site's RPC kind on the first send (so the tree's root always
   carries it), [Forward] on recursive hops, [Reply] on the response. *)
let rec handle_find_successor t pn ~kind ~layer ~key ~hops ~reply_to ~reply =
  let ls = layer_state pn ~layer in
  let succ = current_successor pn ls in
  if Id.in_oc key ~lo:pn.id ~hi:succ.pid || succ.paddr = pn.addr then
    Engine.send t.eng
      ~kind:(match kind with Netspan.Forward -> Netspan.Reply | k -> k)
      ~src:pn.addr ~dst:reply_to
      (fun () -> reply succ (hops + 1))
  else begin
    let next = closest_preceding pn ls ~key in
    Engine.send t.eng ~kind ~src:pn.addr ~dst:next.paddr (fun () ->
        match Hashtbl.find_opt t.nodes next.paddr with
        | None -> ()
        | Some pn' ->
            handle_find_successor t pn' ~kind:Netspan.Forward ~layer ~key ~hops:(hops + 1)
              ~reply_to ~reply)
  end

let find_successor t ~kind ~src ~layer ~key ~retries ~ok ~failed =
  let rec attempt n =
    let settled = ref false in
    (match Hashtbl.find_opt t.nodes src with
    | None -> ()
    | Some pn ->
        handle_find_successor t pn ~kind ~layer ~key ~hops:(-1) ~reply_to:src ~reply:(fun p h ->
            if not !settled then begin
              settled := true;
              ok p h
            end));
    Engine.timer t.eng ~node:src ~delay:t.cfg.rpc_timeout (fun () ->
        if not !settled then begin
          settled := true;
          if n > 0 then attempt (n - 1) else failed ()
        end)
  in
  attempt retries

(* ---- per-layer maintenance -------------------------------------------- *)

(* see Chord.Protocol: periodic cross-check against the anchor's view of
   the global ring merges parallel rings that stabilize alone cannot *)
let anchor_crosscheck_period = 8

(* Successor-list hygiene, per layer: drop ourselves, dedup, cap. Entries
   that are already gone are dropped at adoption (a quick liveness ping in
   a real deployment): a dead entry adopted from a neighbour's stale list
   poisons closest_preceding from the tail, where no stabilize timeout
   ever examines it — and in a small lower-layer ring that can wedge
   routing permanently (see Chord.Protocol.truncate_succs). *)
let truncate_succs t pn l =
  let seen = Hashtbl.create 8 in
  let deduped =
    List.filter
      (fun p ->
        if p.paddr = pn.addr || Hashtbl.mem seen p.paddr then false
        else if not (Engine.is_alive t.eng p.paddr) then false
        else begin
          Hashtbl.replace seen p.paddr ();
          true
        end)
      l
  in
  List.filteri (fun i _ -> i < t.cfg.succ_list_len) deduped

let rec stabilize t pn ~layer =
  let ls = layer_state pn ~layer in
  let succ = current_successor pn ls in
  if succ.paddr = pn.addr then begin
    (match ls.pred with
    | Some p when p.paddr <> pn.addr -> ls.succs <- [ p ]
    | _ ->
        (* global-layer self-ring with no predecessor: re-join via anchor *)
        if layer = 1 && pn.anchor <> pn.addr && Engine.is_alive t.eng pn.anchor then begin
          maint t `Stabilize;
          Engine.send t.eng ~kind:Netspan.Stabilize ~src:pn.addr ~dst:pn.anchor (fun () ->
              match Hashtbl.find_opt t.nodes pn.anchor with
              | None -> ()
              | Some apn ->
                  handle_find_successor t apn ~kind:Netspan.Forward ~layer:1 ~key:pn.id ~hops:0
                    ~reply_to:pn.addr ~reply:(fun p _ ->
                      let gls = layer_state pn ~layer:1 in
                      if (current_successor pn gls).paddr = pn.addr && p.paddr <> pn.addr then
                        gls.succs <- [ p ]))
        end);
    schedule_stabilize t pn ~layer
  end
  else begin
    maint t `Stabilize;
    ask t ~kind:Netspan.Stabilize ~src:pn.addr ~dst:succ.paddr
      ~service:(fun spn ->
        let sls = layer_state spn ~layer in
        (sls.pred, self_peer spn :: sls.succs))
      ~ok:(fun (spred, slist) ->
        ls.succ_suspect <- 0;
        (match spred with
        | Some x when x.paddr <> pn.addr && Id.in_oo x.pid ~lo:pn.id ~hi:succ.pid ->
            ls.succs <- truncate_succs t pn (x :: slist)
        | _ -> ls.succs <- truncate_succs t pn slist);
        if layer = 1 then begin
          pn.stabilize_rounds <- pn.stabilize_rounds + 1;
          if
            pn.stabilize_rounds mod anchor_crosscheck_period = 0
            && pn.anchor <> pn.addr
            && Engine.is_alive t.eng pn.anchor
          then begin
            maint t `Stabilize;
            Engine.send t.eng ~kind:Netspan.Stabilize ~src:pn.addr ~dst:pn.anchor (fun () ->
                match Hashtbl.find_opt t.nodes pn.anchor with
                | None -> ()
                | Some apn ->
                    handle_find_successor t apn ~kind:Netspan.Forward ~layer:1 ~key:pn.id
                      ~hops:0 ~reply_to:pn.addr ~reply:(fun p _ ->
                        let gls = layer_state pn ~layer:1 in
                        let cur = current_successor pn gls in
                        if
                          p.paddr <> pn.addr
                          && (cur.paddr = pn.addr || Id.in_oo p.pid ~lo:pn.id ~hi:cur.pid)
                        then gls.succs <- truncate_succs t pn (p :: gls.succs)))
          end
        end;
        let new_succ = current_successor pn ls in
        maint t `Notify;
        Engine.send t.eng ~kind:Netspan.Notify ~src:pn.addr ~dst:new_succ.paddr (fun () ->
            match Hashtbl.find_opt t.nodes new_succ.paddr with
            | None -> ()
            | Some spn -> (
                let sls = layer_state spn ~layer in
                let candidate = self_peer pn in
                match sls.pred with
                | None -> sls.pred <- Some candidate
                | Some p when Id.in_oo candidate.pid ~lo:p.pid ~hi:spn.id ->
                    sls.pred <- Some candidate
                | Some _ -> ()));
        schedule_stabilize t pn ~layer)
      ~timeout:(fun () ->
        ls.succ_suspect <- ls.succ_suspect + 1;
        if ls.succ_suspect >= 2 && (current_successor pn ls).paddr = succ.paddr then begin
          ls.succ_suspect <- 0;
          expunge_layer ls succ.paddr;
          if ls.succs = [] then ls.succs <- [ self_peer pn ]
        end;
        schedule_stabilize t pn ~layer)
  end

and schedule_stabilize t pn ~layer =
  Engine.timer t.eng ~node:pn.addr
    ~delay:(t.cfg.stabilize_every *. t.scale)
    (fun () -> stabilize t pn ~layer)

let rec fix_fingers t pn ~layer =
  let ls = layer_state pn ~layer in
  let bits = Id.bits t.cfg.space in
  for _ = 1 to min t.cfg.fingers_per_round bits do
    let i = ls.next_finger in
    ls.next_finger <- (ls.next_finger + 1) mod bits;
    let start = Id.add_pow2 t.cfg.space pn.id i in
    maint t `Fix;
    find_successor t ~kind:Netspan.Fix_fingers ~src:pn.addr ~layer ~key:start ~retries:0
      ~ok:(fun p _ -> ls.fingers.(i) <- Some p)
      ~failed:(fun () ->
        (* unresolvable finger: clear it rather than keep a possibly-dead
           entry steering closest_preceding into a black hole — with the
           slot empty, routing falls back to lower fingers and the
           successor list until a later round re-resolves it *)
        ls.fingers.(i) <- None)
  done;
  Engine.timer t.eng ~node:pn.addr
    ~delay:(t.cfg.fix_fingers_every *. t.scale)
    (fun () -> fix_fingers t pn ~layer)

let rec check_predecessor t pn ~layer =
  let ls = layer_state pn ~layer in
  (match ls.pred with
  | None -> ()
  | Some p ->
      if p.paddr <> pn.addr then begin
        maint t `Check;
        ask t ~kind:Netspan.Check_pred ~src:pn.addr ~dst:p.paddr
          ~service:(fun _ -> ())
          ~ok:(fun () -> ())
          ~timeout:(fun () ->
            match ls.pred with
            | Some q when q.paddr = p.paddr -> ls.pred <- None
            | _ -> ())
      end);
  Engine.timer t.eng ~node:pn.addr
    ~delay:(t.cfg.check_pred_every *. t.scale)
    (fun () -> check_predecessor t pn ~layer)

(* ---- ring-table duties -------------------------------------------------- *)

let ring_name_of _t pn ~layer = Ring_name.make ~layer ~order:pn.orders.(layer - 2)

let store_ring_table _t pn rt =
  Hashtbl.replace pn.stored (Ring_name.to_string (Ring_table.name rt)) rt

(* lookup in [stored], falling back to promoting a replica: get_ring_table
   requests are routed to the current top-layer owner of the ring id, so
   being asked while holding only a replica means the old manager is gone
   and this node inherited the key space *)
let stored_table pn key =
  match Hashtbl.find_opt pn.stored key with
  | Some rt -> Some rt
  | None -> (
      match Hashtbl.find_opt pn.replicas key with
      | Some replica ->
          Hashtbl.remove pn.replicas key;
          Hashtbl.replace pn.stored key replica;
          Some replica
      | None -> None)


(* The manager checks liveness of recorded nodes, refills from a survivor's
   ring successor list, and migrates tables whose top-layer owner changed. *)
let rec ring_table_duty t pn =
  let tables = Hashtbl.fold (fun k v acc -> (k, v) :: acc) pn.stored [] in
  List.iter
    (fun (key, rt) ->
      (* liveness of recorded entries *)
      List.iter
        (fun e ->
          if e.Ring_table.node <> pn.addr then begin
            maint t `Ring;
            ask t ~kind:Netspan.Ring ~src:pn.addr ~dst:e.Ring_table.node
              ~service:(fun _ -> ())
              ~ok:(fun () -> ())
              ~timeout:(fun () ->
                ignore (Ring_table.remove rt e.Ring_table.node);
                (* refill: ask a survivor for its ring successors *)
                match Ring_table.any_member rt with
                | None -> ()
                | Some survivor ->
                    let layer = Ring_name.layer (Ring_table.name rt) in
                    maint t `Ring;
                    ask t ~kind:Netspan.Ring ~src:pn.addr ~dst:survivor.Ring_table.node
                      ~service:(fun spn ->
                        let sls = layer_state spn ~layer in
                        self_peer spn :: sls.succs)
                      ~ok:(fun members ->
                        List.iter
                          (fun p ->
                            ignore
                              (Ring_table.register rt
                                 { Ring_table.node = p.paddr; id = p.pid }))
                          members)
                      ~timeout:(fun () -> ()))
          end)
        (Ring_table.entries rt);
      (* replication: push a snapshot to the global successor so the table
         survives this manager's silent failure *)
      (let gls = layer_state pn ~layer:1 in
       let succ = current_successor pn gls in
       if succ.paddr <> pn.addr then begin
         let snapshot = Ring_table.copy rt in
         maint t `Ring;
         Engine.send t.eng ~kind:Netspan.Ring ~src:pn.addr ~dst:succ.paddr (fun () ->
             match Hashtbl.find_opt t.nodes succ.paddr with
             | None -> ()
             | Some spn ->
                 if not (Hashtbl.mem spn.stored key) then
                   Hashtbl.replace spn.replicas key snapshot)
       end);
      (* migration: is this node still the rightful manager? *)
      let rid = Ring_table.ring_id rt in
      maint t `Ring;
      find_successor t ~kind:Netspan.Ring ~src:pn.addr ~layer:1 ~key:rid ~retries:0
        ~ok:(fun owner _ ->
          if owner.paddr <> pn.addr then begin
            Engine.send t.eng ~kind:Netspan.Ring ~src:pn.addr ~dst:owner.paddr (fun () ->
                match Hashtbl.find_opt t.nodes owner.paddr with
                | None -> ()
                | Some opn ->
                    let merged =
                      match Hashtbl.find_opt opn.stored key with
                      | None -> rt
                      | Some existing ->
                          List.iter
                            (fun e -> ignore (Ring_table.register existing e))
                            (Ring_table.entries rt);
                          existing
                    in
                    Hashtbl.replace opn.stored key merged);
            Hashtbl.remove pn.stored key
          end)
        ~failed:(fun () -> ()))
    tables;
  Engine.timer t.eng ~node:pn.addr
    ~delay:(t.cfg.ring_check_every *. t.scale)
    (fun () -> ring_table_duty t pn)

(* Ring unification: concurrent joiners may read a stale ring table and boot
   a private one-node ring. Periodically every node re-reads its rings'
   tables, adopts any recorded member that lies between itself and its
   current ring successor (stabilize then merges the loops), and re-registers
   itself so the table tracks the live extremes. The paper assumes joins are
   sequential and tables current; this duty removes that assumption. *)
let rec ring_refresh t pn =
  for layer = 2 to t.cfg.depth do
    let rname = ring_name_of t pn ~layer in
    let key = Ring_name.to_string rname in
    let rid = Ring_name.ring_id t.cfg.space rname in
    maint t `Ring;
    find_successor t ~kind:Netspan.Ring ~src:pn.addr ~layer:1 ~key:rid ~retries:0
      ~ok:(fun manager _ ->
        maint t `Ring;
        ask t ~kind:Netspan.Ring ~src:pn.addr ~dst:manager.paddr
          ~service:(fun mpn ->
            match stored_table mpn key with
            | Some rt ->
                let changed =
                  Ring_table.register rt { Ring_table.node = pn.addr; id = pn.id }
                in
                ignore changed;
                Ring_table.entries rt
            | None ->
                let rt =
                  Ring_table.of_members t.cfg.space rname
                    [ { Ring_table.node = pn.addr; id = pn.id } ]
                in
                store_ring_table t mpn rt;
                [])
          ~ok:(fun entries ->
            let ls = layer_state pn ~layer in
            List.iter
              (fun e ->
                (* skip recorded members that are gone: a stale table entry
                   re-adopted here would seize the successor slot faster
                   than stabilize can expunge it, wedging the ring (the
                   anchor re-join applies the same liveness shortcut) *)
                if e.Ring_table.node <> pn.addr && Engine.is_alive t.eng e.Ring_table.node
                then begin
                  let succ = current_successor pn ls in
                  if
                    succ.paddr = pn.addr
                    || Id.in_oo e.Ring_table.id ~lo:pn.id ~hi:succ.pid
                  then
                    ls.succs <-
                      truncate_succs t pn
                        ({ paddr = e.Ring_table.node; pid = e.Ring_table.id } :: ls.succs)
                end)
              entries)
          ~timeout:(fun () -> ()))
      ~failed:(fun () -> ())
  done;
  Engine.timer t.eng ~node:pn.addr
    ~delay:(t.cfg.ring_check_every *. t.scale)
    (fun () -> ring_refresh t pn)

(* ---- lifecycle ---------------------------------------------------------- *)

let start_maintenance t pn =
  for layer = 1 to t.cfg.depth do
    schedule_stabilize t pn ~layer;
    Engine.timer t.eng ~node:pn.addr ~delay:t.cfg.fix_fingers_every (fun () ->
        fix_fingers t pn ~layer);
    Engine.timer t.eng ~node:pn.addr ~delay:t.cfg.check_pred_every (fun () ->
        check_predecessor t pn ~layer)
  done;
  Engine.timer t.eng ~node:pn.addr ~delay:t.cfg.ring_check_every (fun () -> ring_table_duty t pn);
  Engine.timer t.eng ~node:pn.addr ~delay:(1.5 *. t.cfg.ring_check_every) (fun () ->
      ring_refresh t pn)

let measure_orders t ~addr =
  let dists = Binning.Landmark.measure t.lat t.landmarks ~host:addr in
  Array.map (fun thr -> Binning.Scheme.order thr dists) t.chain

let fresh_node t ~addr ~id =
  if Hashtbl.mem t.nodes addr then invalid_arg "Hprotocol: address already in use";
  let bits = Id.bits t.cfg.space in
  let pn =
    {
      addr;
      id;
      orders = measure_orders t ~addr;
      layers =
        Array.init t.cfg.depth (fun _ ->
            {
              pred = None;
              succs = [];
              fingers = Array.make bits None;
              next_finger = 0;
              succ_suspect = 0;
            });
      stored = Hashtbl.create 4;
      replicas = Hashtbl.create 4;
      anchor = addr;
      stabilize_rounds = 0;
    }
  in
  Hashtbl.replace t.nodes addr pn;
  pn

let spawn t ~addr ~id =
  let pn = fresh_node t ~addr ~id in
  Array.iter (fun ls -> ls.succs <- [ self_peer pn ]) pn.layers;
  (* first node stores the ring tables of all of its own rings *)
  for layer = 2 to t.cfg.depth do
    let rname = ring_name_of t pn ~layer in
    let rt =
      Ring_table.of_members t.cfg.space rname [ { Ring_table.node = addr; id } ]
    in
    store_ring_table t pn rt
  done;
  start_maintenance t pn;
  perturb t;
  ensure_probe t;
  emit_churn t

(* Join one lower layer (paper §3.3): locate the ring table through the top
   layer, ask a recorded member for our ring-level successor, register
   ourselves in the table if we displace an extreme. *)
let join_lower_layer t pn ~layer ~and_then =
  let rname = ring_name_of t pn ~layer in
  let key = Ring_name.to_string rname in
  let rid = Ring_name.ring_id t.cfg.space rname in
  let ls = layer_state pn ~layer in
  let register_with manager_addr =
    Engine.send t.eng ~kind:Netspan.Join ~src:pn.addr ~dst:manager_addr (fun () ->
        match Hashtbl.find_opt t.nodes manager_addr with
        | None -> ()
        | Some mpn -> (
            match stored_table mpn key with
            | Some rt -> ignore (Ring_table.register rt { Ring_table.node = pn.addr; id = pn.id })
            | None ->
                let rt =
                  Ring_table.of_members t.cfg.space rname
                    [ { Ring_table.node = pn.addr; id = pn.id } ]
                in
                store_ring_table t mpn rt))
  in
  (* route to the manager of this ring's table on the top layer *)
  find_successor t ~kind:Netspan.Join ~src:pn.addr ~layer:1 ~key:rid
    ~retries:t.cfg.lookup_retries
    ~ok:(fun manager _ ->
      ask t ~kind:Netspan.Join ~src:pn.addr ~dst:manager.paddr
        ~service:(fun mpn -> Option.map Ring_table.entries (stored_table mpn key))
        ~ok:(fun entries ->
          let members =
            match entries with
            | Some (_ :: _ as es) ->
                List.filter (fun e -> e.Ring_table.node <> pn.addr) es
            | _ -> []
          in
          match members with
          | [] ->
              (* first member of this ring: one-node ring, create the table *)
              ls.succs <- [ self_peer pn ];
              register_with manager.paddr;
              and_then ()
          | first :: rest ->
              (* ask a recorded member for our ring-level successor *)
              let rec try_members m ms =
                let settled = ref false in
                Engine.send t.eng ~kind:Netspan.Join ~src:pn.addr ~dst:m.Ring_table.node
                  (fun () ->
                    match Hashtbl.find_opt t.nodes m.Ring_table.node with
                    | None -> ()
                    | Some ppn ->
                        handle_find_successor t ppn ~kind:Netspan.Forward ~layer ~key:pn.id
                          ~hops:0 ~reply_to:pn.addr ~reply:(fun succ _ ->
                            if not !settled then begin
                              settled := true;
                              ls.succs <- [ succ ];
                              if Ring_table.should_register
                                   (Ring_table.of_members t.cfg.space rname
                                      (match entries with Some es -> es | None -> []))
                                   pn.id
                              then register_with manager.paddr;
                              and_then ()
                            end));
                Engine.timer t.eng ~node:pn.addr ~delay:t.cfg.rpc_timeout (fun () ->
                    if not !settled then begin
                      settled := true;
                      match ms with
                      | next :: more -> try_members next more
                      | [] ->
                          (* everyone recorded is dead: start a fresh ring *)
                          ls.succs <- [ self_peer pn ];
                          register_with manager.paddr;
                          and_then ()
                    end)
              in
              try_members first rest)
        ~timeout:(fun () ->
          ls.succs <- [ self_peer pn ];
          and_then ()))
    ~failed:(fun () ->
      ls.succs <- [ self_peer pn ];
      and_then ())

let join t ~addr ~id ~bootstrap =
  let pn = fresh_node t ~addr ~id in
  pn.anchor <- bootstrap;
  perturb t;
  ensure_probe t;
  Obs.Timeseries.add t.ts_joins ~at:(Engine.now t.eng) 1.0;
  emit_churn t;
  (* step 1-2: fetch the landmark table from the bootstrap and ping the
     landmarks; we charge one RTT to the farthest landmark before the
     overlay join proceeds. The fetch retries forever — losing it must not
     strand the node before it even enters the overlay. *)
  let ping_delay =
    Array.fold_left
      (fun acc r -> Float.max acc (2.0 *. Topology.Latency.host_to_router t.lat addr r))
      0.0
      (Binning.Landmark.routers t.landmarks)
  in
  let rec fetch_landmark_table () =
    ask t ~kind:Netspan.Join ~src:addr ~dst:bootstrap
      ~service:(fun _ -> ())
      ~ok:(fun () ->
      Engine.timer t.eng ~node:addr ~delay:ping_delay (fun () ->
          (* step 3: top-layer Chord join through the bootstrap *)
          let rec attempt n =
            let settled = ref false in
            Engine.send t.eng ~kind:Netspan.Join ~src:addr ~dst:bootstrap (fun () ->
                match Hashtbl.find_opt t.nodes bootstrap with
                | None -> ()
                | Some bpn ->
                    handle_find_successor t bpn ~kind:Netspan.Forward ~layer:1 ~key:id ~hops:0
                      ~reply_to:addr ~reply:(fun p _ ->
                        if not !settled then begin
                          settled := true;
                          (layer_state pn ~layer:1).succs <- [ p ];
                          (* step 4: join each lower layer in turn *)
                          let rec lower layer =
                            if layer > t.cfg.depth then begin
                              start_maintenance t pn;
                              Obs.Timeseries.add t.ts_join_done ~at:(Engine.now t.eng) 1.0;
                              emit_churn t
                            end
                            else
                              join_lower_layer t pn ~layer ~and_then:(fun () ->
                                  lower (layer + 1))
                          in
                          lower 2
                        end));
            Engine.timer t.eng ~node:addr ~delay:t.cfg.rpc_timeout (fun () ->
                if not !settled then begin
                  settled := true;
                  (* never abandon the join: a node that gives up is lost *)
                  let backoff = if n > 0 then 0.0 else 4.0 *. t.cfg.rpc_timeout in
                  Engine.timer t.eng ~node:addr ~delay:backoff (fun () ->
                      attempt (max 0 (n - 1)))
                end)
          in
          attempt t.cfg.lookup_retries))
      ~timeout:(fun () -> fetch_landmark_table ())
  in
  fetch_landmark_table ()

let fail_node t addr =
  if not (Hashtbl.mem t.nodes addr) then invalid_arg "Hprotocol.fail_node: unknown node";
  Engine.kill t.eng addr;
  perturb t;
  Obs.Timeseries.add t.ts_fails ~at:(Engine.now t.eng) 1.0;
  emit_churn t

(* ---- hierarchical lookup ------------------------------------------------ *)

type lookup_outcome = { owner_addr : int; owner_id : Id.t; hops : int; lower_hops : int }

(* Route to the ring-level closest preceding node at [layer], then either
   early-exit through the global successor check or descend to the next
   layer. Runs as a chain of forwarded messages; the final owner replies
   straight to the originator. [kind] follows the handle_find_successor
   convention: the initiation kind until the first send, then [Forward] /
   [Reply]; descending a layer sends nothing, so the kind rides along. *)
let rec hroute t pn ~kind ~layer ~key ~hops ~lower_hops ~reply_to ~reply =
  let reply_kind = match kind with Netspan.Forward -> Netspan.Reply | k -> k in
  if layer >= 2 then begin
    let ls = layer_state pn ~layer in
    let succ = current_successor pn ls in
    if Id.in_oc key ~lo:pn.id ~hi:succ.pid || succ.paddr = pn.addr then begin
      (* ring-level predecessor reached: early exit if our global successor
         owns the key, otherwise climb one layer *)
      let gls = layer_state pn ~layer:1 in
      let gsucc = current_successor pn gls in
      if gsucc.paddr <> pn.addr && Id.in_oc key ~lo:pn.id ~hi:gsucc.pid then
        Engine.send t.eng ~kind:reply_kind ~src:pn.addr ~dst:reply_to (fun () ->
            reply gsucc (hops + 1) lower_hops)
      else hroute t pn ~kind ~layer:(layer - 1) ~key ~hops ~lower_hops ~reply_to ~reply
    end
    else begin
      let next = closest_preceding pn ls ~key in
      Engine.send t.eng ~kind ~src:pn.addr ~dst:next.paddr (fun () ->
          match Hashtbl.find_opt t.nodes next.paddr with
          | None -> ()
          | Some pn' ->
              hroute t pn' ~kind:Netspan.Forward ~layer ~key ~hops:(hops + 1)
                ~lower_hops:(lower_hops + 1) ~reply_to ~reply)
    end
  end
  else begin
    let ls = layer_state pn ~layer:1 in
    let succ = current_successor pn ls in
    if Id.in_oc key ~lo:pn.id ~hi:succ.pid || succ.paddr = pn.addr then
      Engine.send t.eng ~kind:reply_kind ~src:pn.addr ~dst:reply_to (fun () ->
          reply succ (hops + 1) lower_hops)
    else begin
      let next = closest_preceding pn ls ~key in
      Engine.send t.eng ~kind ~src:pn.addr ~dst:next.paddr (fun () ->
          match Hashtbl.find_opt t.nodes next.paddr with
          | None -> ()
          | Some pn' ->
              hroute t pn' ~kind:Netspan.Forward ~layer:1 ~key ~hops:(hops + 1) ~lower_hops
                ~reply_to ~reply)
    end
  end

let lookup t ~origin ~key k =
  let rec attempt budget =
    let settled = ref false in
    (match Hashtbl.find_opt t.nodes origin with
    | None -> ()
    | Some pn ->
        hroute t pn ~kind:Netspan.Lookup ~layer:t.cfg.depth ~key ~hops:(-1) ~lower_hops:0
          ~reply_to:origin
          ~reply:(fun p hops lower_hops ->
            if not !settled then begin
              settled := true;
              k (Some { owner_addr = p.paddr; owner_id = p.pid; hops; lower_hops })
            end));
    Engine.timer t.eng ~node:origin ~delay:t.cfg.rpc_timeout (fun () ->
        if not !settled then begin
          settled := true;
          if budget > 0 then attempt (budget - 1) else k None
        end)
  in
  attempt t.cfg.lookup_retries

let export_metrics ?(prefix = "hieras.protocol") t m =
  let c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ "." ^ name)) v in
  c "maint.stabilize" t.maint_stabilize;
  c "maint.notify" t.maint_notify;
  c "maint.fix_fingers" t.maint_fix_fingers;
  c "maint.check_pred" t.maint_check_pred;
  c "maint.ring" t.maint_ring;
  c "maint.total" (maintenance_ops t);
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ ".maint.scale")) t.scale;
  Array.iteri
    (fun i s ->
      Simnet.Stability.export_metrics
        ~prefix:(Printf.sprintf "%s.layer%d.stability" prefix (i + 1))
        s m)
    t.stabs
