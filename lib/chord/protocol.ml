module Id = Hashid.Id
module Engine = Simnet.Engine
module Netspan = Obs.Netspan

type config = {
  space : Id.space;
  stabilize_every : float;
  fix_fingers_every : float;
  check_pred_every : float;
  fingers_per_round : int;
  succ_list_len : int;
  rpc_timeout : float;
  lookup_retries : int;
  stability_k : int;
  adaptive : bool;
  backoff_max : float;
}

let default_config space =
  {
    space;
    stabilize_every = 500.0;
    fix_fingers_every = 500.0;
    check_pred_every = 1000.0;
    fingers_per_round = 8;
    succ_list_len = 4;
    rpc_timeout = 2000.0;
    lookup_retries = 3;
    stability_k = 3;
    adaptive = false;
    backoff_max = 8.0;
  }

type peer = { paddr : int; pid : Id.t }

type pnode = {
  addr : int;
  id : Id.t;
  mutable pred : peer option;
  mutable succs : peer list; (* head = immediate successor; never empty once live *)
  fingers : peer option array;
  mutable next_finger : int;
  mutable anchor : int;
      (* a long-lived re-entry point (the bootstrap peer): a node that loses
         its whole successor list to failures/loss re-joins through it
         instead of staying marooned in a self-ring *)
  mutable stabilize_rounds : int;
  mutable succ_suspect : int;
      (* consecutive stabilize timeouts against the current successor; a
         single lost reply must not expunge a healthy peer *)
}

type t = {
  cfg : config;
  eng : Engine.t;
  nodes : (int, pnode) Hashtbl.t;
  stab : Simnet.Stability.t;
  mutable scale : float; (* current maintenance-interval multiplier, >= 1 *)
  mutable probing : bool; (* fingerprint probe loop started *)
  mutable members : int list; (* cached live_members, valid while both counts below hold *)
  mutable members_size : int; (* Hashtbl.length nodes when cached *)
  mutable members_moves : int; (* engine deaths + revivals when cached *)
  mutable maint_stabilize : int;
  mutable maint_notify : int;
  mutable maint_fix_fingers : int;
  mutable maint_check_pred : int;
  ts_members : Obs.Timeseries.series;
  ts_joins : Obs.Timeseries.series;
  ts_join_done : Obs.Timeseries.series;
  ts_fails : Obs.Timeseries.series;
  ts_maint : Obs.Timeseries.series;
  ts_scale : Obs.Timeseries.series;
  ts_stable : Obs.Timeseries.series;
}

let create ?(ts = Obs.Timeseries.disabled) cfg eng =
  if cfg.stability_k < 1 then invalid_arg "Chord.Protocol: stability_k must be >= 1";
  if cfg.backoff_max < 1.0 then invalid_arg "Chord.Protocol: backoff_max must be >= 1";
  {
    cfg;
    eng;
    nodes = Hashtbl.create 64;
    stab = Simnet.Stability.create ~k:cfg.stability_k ();
    scale = 1.0;
    probing = false;
    members = [];
    members_size = -1;
    members_moves = -1;
    maint_stabilize = 0;
    maint_notify = 0;
    maint_fix_fingers = 0;
    maint_check_pred = 0;
    ts_members = Obs.Timeseries.gauge ts "chord.members";
    ts_joins = Obs.Timeseries.counter ts "chord.joins";
    ts_join_done = Obs.Timeseries.counter ts "chord.joins_completed";
    ts_fails = Obs.Timeseries.counter ts "chord.fails";
    ts_maint = Obs.Timeseries.counter ts "chord.maint.ops";
    ts_scale = Obs.Timeseries.gauge ts "chord.maint.scale";
    ts_stable = Obs.Timeseries.gauge ts "chord.stable";
  }

let engine t = t.eng
let config t = t.cfg
let stability t = t.stab
let converged t = Simnet.Stability.is_stable t.stab
let interval_scale t = t.scale

let maintenance_ops t =
  t.maint_stabilize + t.maint_notify + t.maint_fix_fingers + t.maint_check_pred

(* one maintenance RPC initiated (stabilize ask, notify, finger fix, pred
   check) — the unit the bandwidth-overhead series counts in *)
let maint t field =
  (match field with
  | `Stabilize -> t.maint_stabilize <- t.maint_stabilize + 1
  | `Notify -> t.maint_notify <- t.maint_notify + 1
  | `Fix -> t.maint_fix_fingers <- t.maint_fix_fingers + 1
  | `Check -> t.maint_check_pred <- t.maint_check_pred + 1);
  Obs.Timeseries.add t.ts_maint ~at:(Engine.now t.eng) 1.0

let self_peer pn = { paddr = pn.addr; pid = pn.id }
let get t addr = Hashtbl.find t.nodes addr

let is_member t addr = Hashtbl.mem t.nodes addr && Engine.is_alive t.eng addr
let node_id t addr = (get t addr).id

let successor_addr t addr =
  match (get t addr).succs with [] -> None | s :: _ -> Some s.paddr

let predecessor_addr t addr = Option.map (fun p -> p.paddr) (get t addr).pred
let successor_list_addrs t addr = List.map (fun p -> p.paddr) (get t addr).succs
let finger_addrs t addr = Array.map (Option.map (fun p -> p.paddr)) (get t addr).fingers

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

(* Lifecycle events are rare relative to messages, so counting live members
   on each one is cheap enough for the membership gauge. *)
let emit_members t =
  let count = Hashtbl.fold (fun a _ n -> if Engine.is_alive t.eng a then n + 1 else n) t.nodes 0 in
  Obs.Timeseries.set t.ts_members ~at:(Engine.now t.eng) (float_of_int count)

(* Deterministic digest of the whole routing state: live membership plus
   every live node's predecessor, successor list and finger table, visited
   in sorted address order. Any change a maintenance round can make (a
   learned successor, an expunged peer, a filled finger, a death) moves it. *)
let fingerprint t =
  let addrs =
    Hashtbl.fold (fun a _ acc -> a :: acc) t.nodes [] |> List.sort Stdlib.compare
  in
  let open Simnet.Stability in
  List.fold_left
    (fun acc addr ->
      if not (Engine.is_alive t.eng addr) then acc
      else begin
        let pn = Hashtbl.find t.nodes addr in
        let acc = fp_add acc addr in
        let acc = fp_add acc (match pn.pred with None -> -1 | Some p -> p.paddr) in
        let acc = List.fold_left (fun acc p -> fp_add acc p.paddr) acc pn.succs in
        let acc = fp_add acc (-2) in
        Array.fold_left
          (fun acc f -> fp_add acc (match f with None -> -1 | Some p -> p.paddr))
          acc pn.fingers
      end)
    fp_init addrs

(* Fixed-cadence convergence probe (a god-event loop, so it outlives any
   single node and sends no messages): observe the fingerprint, then drive
   the adaptive backoff — double the maintenance-interval multiplier while
   stable, snap it back to 1 the moment a change is seen. The probe cadence
   itself is never scaled: it bounds detection latency. *)
let rec probe t =
  let at = Engine.now t.eng in
  Simnet.Stability.observe t.stab ~at ~fingerprint:(fingerprint t);
  if t.cfg.adaptive then
    t.scale <-
      (if Simnet.Stability.is_stable t.stab then Float.min t.cfg.backoff_max (t.scale *. 2.0)
       else 1.0);
  Obs.Timeseries.set t.ts_scale ~at t.scale;
  Obs.Timeseries.set t.ts_stable ~at (if Simnet.Stability.is_stable t.stab then 1.0 else 0.0);
  Engine.schedule t.eng ~delay:t.cfg.stabilize_every (fun () -> probe t)

let ensure_probe t =
  if not t.probing then begin
    t.probing <- true;
    Engine.schedule t.eng ~delay:t.cfg.stabilize_every (fun () -> probe t)
  end

(* a lifecycle event is about to change the routing state: restart the
   convergence clock and revert any backed-off maintenance interval *)
let perturb t =
  Simnet.Stability.perturb t.stab ~at:(Engine.now t.eng);
  t.scale <- 1.0

let ring_from t start =
  let guard = 2 * (Hashtbl.length t.nodes + 1) in
  let rec go addr acc n =
    if n > guard then List.rev acc
    else
      match successor_addr t addr with
      | None -> List.rev acc
      | Some s when s = start -> List.rev acc
      | Some s -> go s (s :: acc) (n + 1)
  in
  go start [ start ] 0

(* --- message plumbing ------------------------------------------------- *)

(* Request/response with timeout. [service] runs at [dst] against its node
   state and must call its continuation exactly once with the response;
   the response value travels back in a second message. A timer at the
   requester fires [on_timeout] if the response has not arrived. [kind]
   labels the request span for the netspan tracer; the response leg is
   always a [Reply] (and a causal child of the request). *)
let ask t ~kind ~src ~dst ~(service : pnode -> 'a) ~(ok : 'a -> unit) ~(timeout : unit -> unit) =
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

(* Split-ring healing: parallel rings (formed under heavy loss or
   simultaneous joins) never merge through stabilize alone, because no
   notify crosses rings. Periodically each node asks its anchor's ring for
   its own successor and adopts the answer when it is closer than the
   current one; since every join anchors at the same long-lived peer, that
   ring is authoritative and stray rings drain into it. *)
let anchor_crosscheck_period = 8

(* Remove a peer everywhere it appears in local state (it timed out). *)
let expunge pn bad =
  pn.succs <- List.filter (fun p -> p.paddr <> bad) pn.succs;
  (match pn.pred with Some p when p.paddr = bad -> pn.pred <- None | _ -> ());
  Array.iteri
    (fun i f -> match f with Some p when p.paddr = bad -> pn.fingers.(i) <- None | _ -> ())
    pn.fingers

let current_successor pn = match pn.succs with [] -> self_peer pn | s :: _ -> s

(* Best known next hop strictly inside (self, key): scan fingers from the
   top, then the successor list; fall back to the immediate successor. *)
let closest_preceding pn ~key =
  let best = ref None in
  let consider p =
    if p.paddr <> pn.addr && Id.in_oo p.pid ~lo:pn.id ~hi:key then
      match !best with
      | Some b when Id.in_oo p.pid ~lo:b.pid ~hi:key -> best := Some p
      | Some _ -> ()
      | None -> best := Some p
  in
  Array.iter (function Some p -> consider p | None -> ()) pn.fingers;
  List.iter consider pn.succs;
  match !best with Some p -> p | None -> current_successor pn

(* --- find_successor: recursive forwarding with direct reply ----------- *)

(* [kind] is the span kind of the next message this cascade sends: the
   initiating site's RPC kind on the first send (so the tree's root always
   carries it, even when the cascade is a single direct reply), [Forward]
   on every recursive hop after that, [Reply] on the response leg. *)
let rec handle_find_successor t pn ~kind ~key ~hops ~reply_to ~(reply : peer -> int -> unit) =
  let succ = current_successor pn in
  if Id.in_oc key ~lo:pn.id ~hi:succ.pid || succ.paddr = pn.addr then
    (* reply travels straight back to the requester *)
    Engine.send t.eng
      ~kind:(match kind with Netspan.Forward -> Netspan.Reply | k -> k)
      ~src:pn.addr ~dst:reply_to
      (fun () -> reply succ (hops + 1))
  else begin
    let next = closest_preceding pn ~key in
    Engine.send t.eng ~kind ~src:pn.addr ~dst:next.paddr (fun () ->
        match Hashtbl.find_opt t.nodes next.paddr with
        | None -> ()
        | Some pn' ->
            handle_find_successor t pn' ~kind:Netspan.Forward ~key ~hops:(hops + 1) ~reply_to
              ~reply)
  end

(* find_successor issued from [src] with timeout/retry *)
let find_successor t ~kind ~src ~key ~retries ~(ok : peer -> int -> unit) ~(failed : unit -> unit) =
  let rec attempt n =
    let settled = ref false in
    (match Hashtbl.find_opt t.nodes src with
    | None -> ()
    | Some pn ->
        handle_find_successor t pn ~kind ~key ~hops:(-1) ~reply_to:src ~reply:(fun p h ->
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

(* --- periodic maintenance --------------------------------------------- *)

(* Successor-list hygiene: drop ourselves, dedup by address (keeping the
   first = closest occurrence), cap at the configured length. Entries that
   are already gone are dropped at adoption (a quick liveness ping in a
   real deployment): a dead entry adopted from a neighbour's stale list
   would poison closest_preceding from the tail, where no stabilize
   timeout ever examines it — lists heal head-first only. *)
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

let rec stabilize t pn =
  let succ = current_successor pn in
  if succ.paddr = pn.addr then begin
    (* self-ring: adopt our predecessor as successor once one shows up;
       failing that, re-enter the ring through the anchor *)
    (match pn.pred with
    | Some p when p.paddr <> pn.addr -> pn.succs <- [ p ]
    | _ ->
        if pn.anchor <> pn.addr && Engine.is_alive t.eng pn.anchor then begin
          maint t `Stabilize;
          Engine.send t.eng ~kind:Netspan.Stabilize ~src:pn.addr ~dst:pn.anchor (fun () ->
              match Hashtbl.find_opt t.nodes pn.anchor with
              | None -> ()
              | Some apn ->
                  handle_find_successor t apn ~kind:Netspan.Forward ~key:pn.id ~hops:0
                    ~reply_to:pn.addr ~reply:(fun p _ ->
                      if (current_successor pn).paddr = pn.addr && p.paddr <> pn.addr then
                        pn.succs <- [ p ]))
        end);
    schedule_stabilize t pn
  end
  else begin
    maint t `Stabilize;
    ask t ~kind:Netspan.Stabilize ~src:pn.addr ~dst:succ.paddr
      ~service:(fun spn -> (spn.pred, self_peer spn :: spn.succs))
      ~ok:(fun (spred, slist) ->
        pn.succ_suspect <- 0;
        (match spred with
        | Some x when x.paddr <> pn.addr && Id.in_oo x.pid ~lo:pn.id ~hi:succ.pid ->
            (* a closer successor exists between us and our successor *)
            pn.succs <- truncate_succs t pn (x :: slist)
        | _ ->
            (* refresh our successor list from the successor's *)
            pn.succs <- truncate_succs t pn slist);
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
                  handle_find_successor t apn ~kind:Netspan.Forward ~key:pn.id ~hops:0
                    ~reply_to:pn.addr ~reply:(fun p _ ->
                      let cur = current_successor pn in
                      if
                        p.paddr <> pn.addr
                        && (cur.paddr = pn.addr || Id.in_oo p.pid ~lo:pn.id ~hi:cur.pid)
                      then pn.succs <- truncate_succs t pn (p :: pn.succs)))
        end;
        let new_succ = current_successor pn in
        (* notify: we believe we are their predecessor *)
        maint t `Notify;
        Engine.send t.eng ~kind:Netspan.Notify ~src:pn.addr ~dst:new_succ.paddr (fun () ->
            match Hashtbl.find_opt t.nodes new_succ.paddr with
            | None -> ()
            | Some spn -> (
                let candidate = self_peer pn in
                match spn.pred with
                | None -> spn.pred <- Some candidate
                | Some p when Id.in_oo candidate.pid ~lo:p.pid ~hi:spn.id ->
                    spn.pred <- Some candidate
                | Some _ -> ()));
        schedule_stabilize t pn)
      ~timeout:(fun () ->
        (* only declare the successor dead after two consecutive silent
           rounds — one lost reply is routine under message loss *)
        pn.succ_suspect <- pn.succ_suspect + 1;
        if pn.succ_suspect >= 2 && (current_successor pn).paddr = succ.paddr then begin
          pn.succ_suspect <- 0;
          expunge pn succ.paddr;
          if pn.succs = [] then pn.succs <- [ self_peer pn ]
        end;
        schedule_stabilize t pn)
  end

and schedule_stabilize t pn =
  Engine.timer t.eng ~node:pn.addr
    ~delay:(t.cfg.stabilize_every *. t.scale)
    (fun () -> stabilize t pn)

let rec fix_fingers t pn =
  let bits = Id.bits t.cfg.space in
  let batch = min t.cfg.fingers_per_round bits in
  let rec fix k =
    if k = 0 then ()
    else begin
      let i = pn.next_finger in
      pn.next_finger <- (pn.next_finger + 1) mod bits;
      let start = Id.add_pow2 t.cfg.space pn.id i in
      maint t `Fix;
      find_successor t ~kind:Netspan.Fix_fingers ~src:pn.addr ~key:start ~retries:0
        ~ok:(fun p _ -> pn.fingers.(i) <- Some p)
        ~failed:(fun () ->
          (* unresolvable finger: clear it rather than keep a possibly-dead
             entry steering closest_preceding into a black hole — with the
             slot empty, routing falls back to lower fingers and the
             successor list until a later round re-resolves it *)
          pn.fingers.(i) <- None);
      fix (k - 1)
    end
  in
  fix batch;
  Engine.timer t.eng ~node:pn.addr
    ~delay:(t.cfg.fix_fingers_every *. t.scale)
    (fun () -> fix_fingers t pn)

let rec check_predecessor t pn =
  (match pn.pred with
  | None -> ()
  | Some p ->
      if p.paddr <> pn.addr then begin
        maint t `Check;
        ask t ~kind:Netspan.Check_pred ~src:pn.addr ~dst:p.paddr
          ~service:(fun _ -> ())
          ~ok:(fun () -> ())
          ~timeout:(fun () ->
            match pn.pred with
            | Some q when q.paddr = p.paddr -> pn.pred <- None
            | _ -> ())
      end);
  Engine.timer t.eng ~node:pn.addr
    ~delay:(t.cfg.check_pred_every *. t.scale)
    (fun () -> check_predecessor t pn)

let start_maintenance t pn =
  schedule_stabilize t pn;
  Engine.timer t.eng ~node:pn.addr ~delay:t.cfg.fix_fingers_every (fun () -> fix_fingers t pn);
  Engine.timer t.eng ~node:pn.addr ~delay:t.cfg.check_pred_every (fun () -> check_predecessor t pn)

(* --- lifecycle --------------------------------------------------------- *)

let fresh_node t ~addr ~id =
  if Hashtbl.mem t.nodes addr then invalid_arg "Chord.Protocol: address already in use";
  let pn =
    {
      addr;
      id;
      pred = None;
      succs = [];
      fingers = Array.make (Id.bits t.cfg.space) None;
      next_finger = 0;
      anchor = addr;
      stabilize_rounds = 0;
      succ_suspect = 0;
    }
  in
  Hashtbl.replace t.nodes addr pn;
  pn

let spawn t ~addr ~id =
  let pn = fresh_node t ~addr ~id in
  pn.succs <- [ self_peer pn ];
  start_maintenance t pn;
  perturb t;
  ensure_probe t;
  emit_members t

let join t ~addr ~id ~bootstrap =
  let pn = fresh_node t ~addr ~id in
  pn.anchor <- bootstrap;
  perturb t;
  ensure_probe t;
  Obs.Timeseries.add t.ts_joins ~at:(Engine.now t.eng) 1.0;
  emit_members t;
  let rec attempt n =
    (* route the join query through the bootstrap node *)
    let settled = ref false in
    Engine.send t.eng ~kind:Netspan.Join ~src:addr ~dst:bootstrap (fun () ->
        match Hashtbl.find_opt t.nodes bootstrap with
        | None -> ()
        | Some bpn ->
            handle_find_successor t bpn ~kind:Netspan.Forward ~key:id ~hops:0 ~reply_to:addr
              ~reply:(fun p _ ->
                if not !settled then begin
                  settled := true;
                  pn.succs <- [ p ];
                  start_maintenance t pn;
                  Obs.Timeseries.add t.ts_join_done ~at:(Engine.now t.eng) 1.0
                end));
    Engine.timer t.eng ~node:addr ~delay:t.cfg.rpc_timeout (fun () ->
        if not !settled then begin
          settled := true;
          (* a node that never joins is lost forever: keep retrying, with a
             longer pause once the initial retry budget is spent *)
          let backoff = if n > 0 then 0.0 else 4.0 *. t.cfg.rpc_timeout in
          Engine.timer t.eng ~node:addr ~delay:backoff (fun () -> attempt (max 0 (n - 1)))
        end)
  in
  attempt t.cfg.lookup_retries

let fail_node t addr =
  if not (Hashtbl.mem t.nodes addr) then invalid_arg "Chord.Protocol.fail_node: unknown node";
  Engine.kill t.eng addr;
  perturb t;
  Obs.Timeseries.add t.ts_fails ~at:(Engine.now t.eng) 1.0;
  emit_members t

type lookup_outcome = { owner_addr : int; owner_id : Id.t; hops : int; retries : int }

let lookup t ~origin ~key k =
  let rec attempt budget tries =
    find_successor t ~kind:Netspan.Lookup ~src:origin ~key ~retries:0
      ~ok:(fun p hops ->
        k (Some { owner_addr = p.paddr; owner_id = p.pid; hops; retries = tries }))
      ~failed:(fun () -> if budget > 0 then attempt (budget - 1) (tries + 1) else k None)
  in
  attempt t.cfg.lookup_retries 0

let export_metrics ?(prefix = "chord.protocol") t m =
  let c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ "." ^ name)) v in
  c "maint.stabilize" t.maint_stabilize;
  c "maint.notify" t.maint_notify;
  c "maint.fix_fingers" t.maint_fix_fingers;
  c "maint.check_pred" t.maint_check_pred;
  c "maint.total" (maintenance_ops t);
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ ".maint.scale")) t.scale;
  Simnet.Stability.export_metrics ~prefix:(prefix ^ ".stability") t.stab m
