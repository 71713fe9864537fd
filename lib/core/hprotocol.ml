module Id = Hashid.Id
module Engine = Simnet.Engine
module Netspan = Obs.Netspan
module R = Chord.Ring_proto

type config = { ring : Chord.Protocol.config; depth : int }

let default_config space ~depth = { ring = Chord.Protocol.default_config space; depth }

(* ms between ring-table liveness / migration checks and ring refreshes *)
let ring_check_every = 2000.0

(* HIERAS-specific node state; the per-layer Chord rings live in the core *)
type ext = {
  orders : string array; (* orders.(k-1) = ring name digits at paper layer k+1 *)
  stored : (string, Ring_table.t) Hashtbl.t; (* key = Ring_name.to_string *)
  replicas : (string, Ring_table.t) Hashtbl.t;
      (* backup copies pushed by the table's manager ("duplicated on several
         nodes for fault tolerance", paper §3.1); promoted to [stored] when
         ownership of the hashed ring name passes to this node *)
}

type pnode = ext R.node

type t = {
  cfg : config;
  core : ext R.t;
  lat : Topology.Latency.t;
  landmarks : Binning.Landmark.t;
  chain : Binning.Scheme.thresholds array;
  mutable maint_ring : int;
}

let create ?(ts = Obs.Timeseries.disabled) cfg eng ~lat ~landmarks =
  if cfg.depth < 2 then invalid_arg "Hprotocol.create: depth must be >= 2";
  let ts_rings =
    Array.init (cfg.depth - 1) (fun k ->
        Obs.Timeseries.gauge ts (Printf.sprintf "hieras.layer%d.rings" (k + 2)))
  in
  (* distinct layer-k ring names over the live members *)
  let gauges ~at live =
    Array.iteri
      (fun k s ->
        let names = List.map (fun (pn : pnode) -> pn.ext.orders.(k)) live in
        Obs.Timeseries.set s ~at (float_of_int (List.length (List.sort_uniq compare names))))
      ts_rings
  in
  {
    cfg;
    core = R.create ~ts ~gauges ~who:"Hprotocol" ~name:"hieras" ~depth:cfg.depth cfg.ring eng;
    lat;
    landmarks;
    chain = Binning.Scheme.refinement_chain ~depth:cfg.depth;
    maint_ring = 0;
  }

let engine t = R.engine t.core
let config t = t.cfg

let stability t ~layer = R.stability t.core ~layer

let converged_layer t ~layer = Simnet.Stability.is_stable (stability t ~layer)
let converged t = R.converged t.core
let interval_scale t = R.interval_scale t.core
let maintenance_ops t = R.maintenance_ops t.core + t.maint_ring

(* one ring-table duty RPC initiated; counted with the core's maintenance *)
let maint_ring t =
  t.maint_ring <- t.maint_ring + 1;
  R.count_maint t.core

let get t addr : pnode = Hashtbl.find (R.nodes t.core) addr
let is_member t addr = R.is_member t.core addr
let node_id t addr = R.node_id t.core addr

let check_layer t layer =
  if layer < 1 || layer > t.cfg.depth then invalid_arg "Hprotocol: layer out of range"

let order_of t addr ~layer =
  check_layer t layer;
  if layer = 1 then invalid_arg "Hprotocol.order_of: the global ring has no order";
  (get t addr).ext.orders.(layer - 2)

let checked f t addr ~layer =
  check_layer t layer;
  f t.core addr ~layer

let successor_addr = checked R.successor_addr
let predecessor_addr = checked R.predecessor_addr
let successor_list_addrs = checked R.successor_list_addrs
let finger_addrs = checked R.finger_addrs
let ring_from = checked R.ring_from

let tables_of field t addr = Hashtbl.fold (fun _ rt acc -> rt :: acc) (field (get t addr).ext) []
let stored_ring_tables = tables_of (fun x -> x.stored)
let replica_ring_tables = tables_of (fun x -> x.replicas)

let find_ring_table t rname =
  let key = Ring_name.to_string rname in
  Hashtbl.fold
    (fun addr (pn : pnode) acc ->
      match acc with
      | None when Engine.is_alive (engine t) addr ->
          Option.map (fun rt -> (addr, rt)) (Hashtbl.find_opt pn.ext.stored key)
      | _ -> acc)
    (R.nodes t.core) None

let live_members t = R.live_members t.core

(* ---- ring-table duties -------------------------------------------------- *)

let ring_name_of (pn : pnode) ~layer = Ring_name.make ~layer ~order:pn.ext.orders.(layer - 2)

let store_ring_table (pn : pnode) rt =
  Hashtbl.replace pn.ext.stored (Ring_name.to_string (Ring_table.name rt)) rt

(* lookup in [stored], falling back to promoting a replica: get_ring_table
   requests are routed to the current top-layer owner of the ring id, so
   being asked while holding only a replica means the old manager is gone
   and this node inherited the key space *)
let stored_table (pn : pnode) key =
  match Hashtbl.find_opt pn.ext.stored key with
  | Some rt -> Some rt
  | None -> (
      match Hashtbl.find_opt pn.ext.replicas key with
      | Some replica ->
          Hashtbl.remove pn.ext.replicas key;
          Hashtbl.replace pn.ext.stored key replica;
          Some replica
      | None -> None)

(* Record [pn] in the table of [rname] held at [mpn], creating the table
   there if it has none; returns the recorded entries. *)
let register_at t mpn rname (pn : pnode) =
  let me = { Ring_table.node = pn.addr; id = pn.id } in
  match stored_table mpn (Ring_name.to_string rname) with
  | Some rt ->
      ignore (Ring_table.register rt me);
      Ring_table.entries rt
  | None ->
      store_ring_table mpn (Ring_table.of_members t.cfg.ring.space rname [ me ]);
      []

(* The manager checks liveness of recorded nodes, refills from a survivor's
   ring successor list, and migrates tables whose top-layer owner changed. *)
let rec ring_table_duty t (pn : pnode) =
  let tables = Hashtbl.fold (fun k v acc -> (k, v) :: acc) pn.ext.stored [] in
  List.iter
    (fun (key, rt) ->
      (* liveness of recorded entries *)
      List.iter
        (fun e ->
          if e.Ring_table.node <> pn.addr then begin
            maint_ring t;
            R.ask t.core ~kind:Netspan.Ring ~src:pn.addr ~dst:e.Ring_table.node
              ~service:(fun _ -> ())
              ~ok:(fun () -> ())
              ~timeout:(fun () ->
                ignore (Ring_table.remove rt e.Ring_table.node);
                (* refill: ask a survivor for its ring successors *)
                match Ring_table.any_member rt with
                | None -> ()
                | Some survivor ->
                    let layer = Ring_name.layer (Ring_table.name rt) in
                    maint_ring t;
                    R.ask t.core ~kind:Netspan.Ring ~src:pn.addr ~dst:survivor.Ring_table.node
                      ~service:(fun spn ->
                        List.map
                          (fun (p : R.peer) -> { Ring_table.node = p.paddr; id = p.pid })
                          (R.self_peer spn :: (R.ring spn ~layer).succs))
                      ~ok:(List.iter (fun e -> ignore (Ring_table.register rt e)))
                      ~timeout:(fun () -> ()))
          end)
        (Ring_table.entries rt);
      (* replication: push a snapshot to the global successor so the table
         survives this manager's silent failure *)
      (let succ = R.current_successor pn (R.ring pn ~layer:1) in
       if succ.paddr <> pn.addr then begin
         let snapshot = Ring_table.copy rt in
         maint_ring t;
         R.post t.core ~kind:Netspan.Ring ~src:pn.addr ~dst:succ.paddr (fun spn ->
             if not (Hashtbl.mem spn.ext.stored key) then
               Hashtbl.replace spn.ext.replicas key snapshot)
       end);
      (* migration: is this node still the rightful manager? *)
      let rid = Ring_table.ring_id rt in
      maint_ring t;
      R.find_successor t.core ~kind:Netspan.Ring ~src:pn.addr ~layer:1 ~key:rid ~retries:0
        ~ok:(fun owner _ ->
          if owner.paddr <> pn.addr then begin
            R.post t.core ~kind:Netspan.Ring ~src:pn.addr ~dst:owner.paddr (fun opn ->
                let merged =
                  match Hashtbl.find_opt opn.ext.stored key with
                  | None -> rt
                  | Some existing ->
                      List.iter
                        (fun e -> ignore (Ring_table.register existing e))
                        (Ring_table.entries rt);
                      existing
                in
                Hashtbl.replace opn.ext.stored key merged);
            Hashtbl.remove pn.ext.stored key
          end)
        ~failed:(fun () -> ()))
    tables;
  R.rearm t.core pn ring_check_every (fun () -> ring_table_duty t pn)

(* Ring unification: concurrent joiners may read a stale ring table and boot
   a private one-node ring. Periodically every node re-reads its rings'
   tables, adopts any recorded member that lies between itself and its
   current ring successor (stabilize then merges the loops), and re-registers
   itself so the table tracks the live extremes. The paper assumes joins are
   sequential and tables current; this duty removes that assumption. *)
let rec ring_refresh t (pn : pnode) =
  for layer = 2 to t.cfg.depth do
    let rname = ring_name_of pn ~layer in
    let rid = Ring_name.ring_id t.cfg.ring.space rname in
    maint_ring t;
    R.find_successor t.core ~kind:Netspan.Ring ~src:pn.addr ~layer:1 ~key:rid ~retries:0
      ~ok:(fun manager _ ->
        maint_ring t;
        R.ask t.core ~kind:Netspan.Ring ~src:pn.addr ~dst:manager.paddr
          ~service:(fun mpn -> register_at t mpn rname pn)
          ~ok:(fun entries ->
            let r = R.ring pn ~layer in
            List.iter
              (fun e ->
                (* skip recorded members that are gone: a stale table entry
                   re-adopted here would seize the successor slot faster
                   than stabilize can expunge it, wedging the ring (the
                   anchor re-join applies the same liveness shortcut) *)
                if e.Ring_table.node <> pn.addr && Engine.is_alive (engine t) e.Ring_table.node
                then begin
                  let succ = R.current_successor pn r in
                  if
                    succ.paddr = pn.addr
                    || Id.in_oo e.Ring_table.id ~lo:pn.id ~hi:succ.pid
                  then
                    r.succs <-
                      R.truncate_succs t.core pn
                        ({ R.paddr = e.Ring_table.node; pid = e.Ring_table.id } :: r.succs)
                end)
              entries)
          ~timeout:(fun () -> ()))
      ~failed:(fun () -> ())
  done;
  R.rearm t.core pn ring_check_every (fun () -> ring_refresh t pn)

(* ---- lifecycle ---------------------------------------------------------- *)

let start_maintenance t (pn : pnode) =
  R.start_rings t.core pn;
  Engine.timer (engine t) ~node:pn.addr ~delay:ring_check_every (fun () ->
      ring_table_duty t pn);
  Engine.timer (engine t) ~node:pn.addr ~delay:(1.5 *. ring_check_every) (fun () ->
      ring_refresh t pn)

let measure_orders t ~addr =
  let dists = Binning.Landmark.measure t.lat t.landmarks ~host:addr in
  Array.map (fun thr -> Binning.Scheme.order thr dists) t.chain

let fresh_node t ~addr ~id =
  R.fresh_node t.core ~addr ~id
    { orders = measure_orders t ~addr; stored = Hashtbl.create 4; replicas = Hashtbl.create 4 }

let spawn t ~addr ~id =
  R.spawn t.core (fresh_node t ~addr ~id) ~start:(fun pn ->
      (* first node stores the ring tables of all of its own rings *)
      for layer = 2 to t.cfg.depth do
        ignore (register_at t pn (ring_name_of pn ~layer) pn)
      done;
      start_maintenance t pn)

(* Join one lower layer (paper §3.3): locate the ring table through the top
   layer, ask a recorded member for our ring-level successor, register
   ourselves in the table if we displace an extreme. *)
let join_lower_layer t (pn : pnode) ~layer ~and_then =
  let rname = ring_name_of pn ~layer in
  let key = Ring_name.to_string rname in
  let rid = Ring_name.ring_id t.cfg.ring.space rname in
  let r = R.ring pn ~layer in
  let register_with manager_addr =
    R.post t.core ~kind:Netspan.Join ~src:pn.addr ~dst:manager_addr (fun mpn ->
        ignore (register_at t mpn rname pn))
  in
  (* settle for a one-node ring, recorded at [manager] when one was found *)
  let alone manager =
    r.succs <- [ R.self_peer pn ];
    Option.iter register_with manager;
    and_then ()
  in
  (* route to the manager of this ring's table on the top layer *)
  R.find_successor t.core ~kind:Netspan.Join ~src:pn.addr ~layer:1 ~key:rid
    ~retries:t.cfg.ring.lookup_retries
    ~ok:(fun manager _ ->
      R.ask t.core ~kind:Netspan.Join ~src:pn.addr ~dst:manager.paddr
        ~service:(fun mpn -> Option.map Ring_table.entries (stored_table mpn key))
        ~ok:(fun entries ->
          let entries = Option.value entries ~default:[] in
          match List.filter (fun e -> e.Ring_table.node <> pn.addr) entries with
          | [] ->
              (* first member of this ring: one-node ring, create the table *)
              alone (Some manager.paddr)
          | first :: rest ->
              (* ask a recorded member for our ring-level successor *)
              let rec try_members m ms =
                R.race t.core ~node:pn.addr
                  (fun settled ->
                    R.resolve_self t.core pn ~kind:Netspan.Join ~via:m.Ring_table.node ~layer
                      (fun succ ->
                        if R.claim settled then begin
                          r.succs <- [ succ ];
                          if
                            Ring_table.should_register
                              (Ring_table.of_members t.cfg.ring.space rname entries)
                              pn.id
                          then register_with manager.paddr;
                          and_then ()
                        end))
                  ~expired:(fun () ->
                    match ms with
                    | next :: more -> try_members next more
                    | [] ->
                        (* everyone recorded is dead: start a fresh ring *)
                        alone (Some manager.paddr))
              in
              try_members first rest)
        ~timeout:(fun () -> alone None))
    ~failed:(fun () -> alone None)

let join t ~addr ~id ~bootstrap =
  let pn = fresh_node t ~addr ~id in
  R.enter t.core pn ~bootstrap;
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
    R.ask t.core ~kind:Netspan.Join ~src:addr ~dst:bootstrap
      ~service:(fun _ -> ())
      ~ok:(fun () ->
        Engine.timer (engine t) ~node:addr ~delay:ping_delay (fun () ->
            (* step 3: top-layer Chord join through the bootstrap; step 4:
               join each lower layer in turn *)
            R.join_global t.core pn ~bootstrap ~joined:(fun () ->
                let rec lower layer =
                  if layer > t.cfg.depth then begin
                    start_maintenance t pn;
                    R.join_completed t.core;
                    R.emit_churn t.core
                  end
                  else join_lower_layer t pn ~layer ~and_then:(fun () -> lower (layer + 1))
                in
                lower 2)))
      ~timeout:(fun () -> fetch_landmark_table ())
  in
  fetch_landmark_table ()

let fail_node t addr = R.fail_node t.core addr

(* ---- hierarchical lookup ------------------------------------------------ *)

type lookup_outcome = { owner_addr : int; owner_id : Id.t; hops : int; lower_hops : int }

(* Route to the ring-level closest preceding node at [layer], then either
   early-exit through the global successor check or descend to the next
   layer; the global layer is the core's find-successor. Runs as a chain of
   forwarded messages; the final owner replies straight to the originator.
   [kind] follows the handle_find_successor convention: the initiation kind
   until the first send, then [Forward] / [Reply]; descending a layer sends
   nothing, so the kind rides along. *)
let rec hroute t (pn : pnode) ~kind ~layer ~key ~hops ~lower_hops ~reply_to ~reply =
  if layer = 1 then
    R.handle_find_successor t.core pn ~kind ~layer ~key ~hops ~reply_to ~reply:(fun p h ->
        reply p h lower_hops)
  else begin
    let r = R.ring pn ~layer in
    let succ = R.current_successor pn r in
    if Id.in_oc key ~lo:pn.id ~hi:succ.pid || succ.paddr = pn.addr then begin
      (* ring-level predecessor reached: early exit if our global successor
         owns the key, otherwise climb one layer *)
      let gsucc = R.current_successor pn (R.ring pn ~layer:1) in
      if gsucc.paddr <> pn.addr && Id.in_oc key ~lo:pn.id ~hi:gsucc.pid then
        Engine.send (engine t)
          ~kind:(match kind with Netspan.Forward -> Netspan.Reply | k -> k)
          ~src:pn.addr ~dst:reply_to
          (fun () -> reply gsucc (hops + 1) lower_hops)
      else hroute t pn ~kind ~layer:(layer - 1) ~key ~hops ~lower_hops ~reply_to ~reply
    end
    else begin
      let next = R.closest_preceding pn r ~key in
      R.post t.core ~kind ~src:pn.addr ~dst:next.paddr (fun pn' ->
          hroute t pn' ~kind:Netspan.Forward ~layer ~key ~hops:(hops + 1)
            ~lower_hops:(lower_hops + 1) ~reply_to ~reply)
    end
  end

let lookup t ~origin ~key k =
  let rec attempt budget =
    R.race t.core ~node:origin
      (fun settled ->
        match Hashtbl.find_opt (R.nodes t.core) origin with
        | None -> ()
        | Some pn ->
            hroute t pn ~kind:Netspan.Lookup ~layer:t.cfg.depth ~key ~hops:(-1) ~lower_hops:0
              ~reply_to:origin ~reply:(fun (p : R.peer) hops lower_hops ->
                if R.claim settled then
                  k (Some { owner_addr = p.paddr; owner_id = p.pid; hops; lower_hops })))
      ~expired:(fun () -> if budget > 0 then attempt (budget - 1) else k None)
  in
  attempt t.cfg.ring.lookup_retries

let overlay t =
  R.overlay t.core ~join:(join t)
    ~maintenance_ops:(fun () -> maintenance_ops t)
    ~lookup:(fun ~origin ~key k ->
      lookup t ~origin ~key (fun r ->
          k (Option.map (fun o -> { R.paddr = o.owner_addr; pid = o.owner_id }) r)))

let export_metrics ?(prefix = "hieras.protocol") t m =
  R.export_metrics ~extra:[ ("ring", t.maint_ring) ] t.core ~prefix m
