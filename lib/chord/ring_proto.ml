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

type peer = { paddr : int; pid : Id.t }

type ring = {
  mutable pred : peer option;
  mutable succs : peer list; (* head = immediate successor; never empty once live *)
  fingers : peer option array;
  mutable next_finger : int;
  mutable succ_suspect : int;
      (* consecutive stabilize timeouts against the current successor; a
         single lost reply must not expunge a healthy peer *)
}

type 'x node = {
  addr : int;
  id : Id.t;
  rings : ring array;
  mutable anchor : int;
      (* a long-lived re-entry point (the bootstrap peer): a node that loses
         its whole global successor list to failures/loss re-joins through
         it instead of staying marooned in a self-ring *)
  mutable stabilize_rounds : int;
  ext : 'x;
}

type 'x t = {
  who : string;
  cfg : config;
  eng : Engine.t;
  nodes : (int, 'x node) Hashtbl.t;
  stabs : Simnet.Stability.t array; (* stabs.(layer - 1) = that ring's detector *)
  mutable scale : float; (* current maintenance-interval multiplier, >= 1 *)
  mutable probing : bool; (* fingerprint probe loop started *)
  mutable members : int list; (* cached live_members, valid while both counts below hold *)
  mutable members_size : int; (* Hashtbl.length nodes when cached *)
  mutable members_moves : int; (* engine deaths + revivals when cached *)
  maint : int array; (* maintenance RPCs initiated, named by [maint_names] *)
  ts_collector : Obs.Timeseries.t;
  gauges : at:float -> 'x node list -> unit;
  ts_members : Obs.Timeseries.series;
  ts_joins : Obs.Timeseries.series;
  ts_join_done : Obs.Timeseries.series;
  ts_fails : Obs.Timeseries.series;
  ts_maint : Obs.Timeseries.series;
  ts_scale : Obs.Timeseries.series;
  ts_stable : Obs.Timeseries.series;
}

let maint_names = [| "stabilize"; "notify"; "fix_fingers"; "check_pred" |]

let create ?(ts = Obs.Timeseries.disabled) ?(gauges = fun ~at:_ _ -> ()) ~who ~name ~depth cfg
    eng =
  if cfg.stability_k < 1 then invalid_arg (who ^ ".create: stability_k must be >= 1");
  if cfg.backoff_max < 1.0 then invalid_arg (who ^ ".create: backoff_max must be >= 1");
  let series make s = make ts (name ^ "." ^ s) in
  {
    who;
    cfg;
    eng;
    nodes = Hashtbl.create 64;
    stabs = Array.init depth (fun _ -> Simnet.Stability.create ~k:cfg.stability_k ());
    scale = 1.0;
    probing = false;
    members = [];
    members_size = -1;
    members_moves = -1;
    maint = Array.make (Array.length maint_names) 0;
    ts_collector = ts;
    gauges;
    ts_members = series Obs.Timeseries.gauge "members";
    ts_joins = series Obs.Timeseries.counter "joins";
    ts_join_done = series Obs.Timeseries.counter "joins_completed";
    ts_fails = series Obs.Timeseries.counter "fails";
    ts_maint = series Obs.Timeseries.counter "maint.ops";
    ts_scale = series Obs.Timeseries.gauge "maint.scale";
    ts_stable = series Obs.Timeseries.gauge "stable";
  }

let engine t = t.eng
let config t = t.cfg
let nodes t = t.nodes
let stability t ~layer =
  if layer < 1 || layer > Array.length t.stabs then
    invalid_arg "Ring_proto.stability: layer out of range";
  t.stabs.(layer - 1)
let converged t = Array.for_all Simnet.Stability.is_stable t.stabs
let interval_scale t = t.scale

let maintenance_ops t = Array.fold_left ( + ) 0 t.maint

let count_maint t = Obs.Timeseries.add t.ts_maint ~at:(Engine.now t.eng) 1.0

(* one maintenance RPC initiated (stabilize ask, notify, finger fix, pred
   check) — the unit the bandwidth-overhead series counts in *)
let maint t op =
  let i = match op with `Stabilize -> 0 | `Notify -> 1 | `Fix -> 2 | `Check -> 3 in
  t.maint.(i) <- t.maint.(i) + 1;
  count_maint t

let self_peer pn = { paddr = pn.addr; pid = pn.id }
let ring pn ~layer = pn.rings.(layer - 1)
let get t addr = Hashtbl.find t.nodes addr
let is_member t addr = Hashtbl.mem t.nodes addr && Engine.is_alive t.eng addr
let node_id t addr = (get t addr).id

let successor_addr t addr ~layer =
  match (ring (get t addr) ~layer).succs with [] -> None | s :: _ -> Some s.paddr

let predecessor_addr t addr ~layer = Option.map (fun p -> p.paddr) (ring (get t addr) ~layer).pred
let successor_list_addrs t addr ~layer =
  List.map (fun p -> p.paddr) (ring (get t addr) ~layer).succs

let finger_addrs t addr ~layer =
  Array.map (Option.map (fun p -> p.paddr)) (ring (get t addr) ~layer).fingers

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

let emit_churn t =
  if Obs.Timeseries.enabled t.ts_collector then begin
    let at = Engine.now t.eng and live = live_members t in
    Obs.Timeseries.set t.ts_members ~at (float_of_int (List.length live));
    t.gauges ~at (List.map (get t) live)
  end

(* Any change a maintenance round can make (a learned successor, an
   expunged peer, a filled finger, a death) moves the digest. *)
let fingerprint t ~layer =
  let open Simnet.Stability in
  List.fold_left
    (fun acc addr ->
      let r = ring (get t addr) ~layer in
      let acc = fp_add acc addr in
      let acc = fp_add acc (match r.pred with None -> -1 | Some p -> p.paddr) in
      let acc = List.fold_left (fun acc p -> fp_add acc p.paddr) acc r.succs in
      let acc = fp_add acc (-2) in
      Array.fold_left
        (fun acc f -> fp_add acc (match f with None -> -1 | Some p -> p.paddr))
        acc r.fingers)
    fp_init (live_members t)

(* A god-event loop, so it outlives any single node. Its own cadence is
   never scaled: it bounds detection latency. *)
let rec probe t =
  let at = Engine.now t.eng in
  Array.iteri
    (fun i s -> Simnet.Stability.observe s ~at ~fingerprint:(fingerprint t ~layer:(i + 1)))
    t.stabs;
  let stable = converged t in
  if t.cfg.adaptive then
    t.scale <- (if stable then Float.min t.cfg.backoff_max (t.scale *. 2.0) else 1.0);
  Obs.Timeseries.set t.ts_scale ~at t.scale;
  Obs.Timeseries.set t.ts_stable ~at (if stable then 1.0 else 0.0);
  Engine.schedule t.eng ~delay:t.cfg.stabilize_every (fun () -> probe t)

let ensure_probe t =
  if not t.probing then begin
    t.probing <- true;
    Engine.schedule t.eng ~delay:t.cfg.stabilize_every (fun () -> probe t)
  end

(* a lifecycle event is about to change the routing state on every layer:
   restart the convergence clocks and revert any backed-off interval *)
let perturb t =
  let at = Engine.now t.eng in
  Array.iter (fun s -> Simnet.Stability.perturb s ~at) t.stabs;
  t.scale <- 1.0

let ring_from t start ~layer =
  let guard = 2 * (Hashtbl.length t.nodes + 1) in
  let rec go addr acc n =
    match successor_addr t addr ~layer with
    | Some s when s <> start && n <= guard -> go s (s :: acc) (n + 1)
    | _ -> List.rev acc
  in
  go start [ start ] 0

(* --- message plumbing ------------------------------------------------- *)

let post t ~kind ~src ~dst f =
  Engine.send t.eng ~kind ~src ~dst (fun () ->
      match Hashtbl.find_opt t.nodes dst with None -> () | Some pn -> f pn)

let claim settled =
  if !settled then false
  else begin
    settled := true;
    true
  end

let race t ~node issue ~expired =
  let settled = ref false in
  issue settled;
  Engine.timer t.eng ~node ~delay:t.cfg.rpc_timeout (fun () -> if claim settled then expired ())

let ask t ~kind ~src ~dst ~service ~ok ~timeout =
  race t ~node:src ~expired:timeout (fun settled ->
      post t ~kind ~src ~dst (fun pn ->
          let response = service pn in
          Engine.send t.eng ~kind:Netspan.Reply ~src:dst ~dst:src (fun () ->
              if claim settled then ok response)))

(* Remove a peer everywhere it appears in one ring's state (it timed out). *)
let expunge r bad =
  r.succs <- List.filter (fun p -> p.paddr <> bad) r.succs;
  (match r.pred with Some p when p.paddr = bad -> r.pred <- None | _ -> ());
  Array.iteri
    (fun i f -> match f with Some p when p.paddr = bad -> r.fingers.(i) <- None | _ -> ())
    r.fingers

let current_successor pn r = match r.succs with [] -> self_peer pn | s :: _ -> s

let closest_preceding pn r ~key =
  let best = ref None in
  let consider p =
    if p.paddr <> pn.addr && Id.in_oo p.pid ~lo:pn.id ~hi:key then
      match !best with
      | Some b when not (Id.in_oo p.pid ~lo:b.pid ~hi:key) -> ()
      | _ -> best := Some p
  in
  Array.iter (function Some p -> consider p | None -> ()) r.fingers;
  List.iter consider r.succs;
  match !best with Some p -> p | None -> current_successor pn r

(* --- find_successor: recursive forwarding with direct reply ----------- *)

let rec handle_find_successor t pn ~kind ~layer ~key ~hops ~reply_to ~reply =
  let r = ring pn ~layer in
  let succ = current_successor pn r in
  if Id.in_oc key ~lo:pn.id ~hi:succ.pid || succ.paddr = pn.addr then
    (* reply travels straight back to the requester *)
    Engine.send t.eng
      ~kind:(match kind with Netspan.Forward -> Netspan.Reply | k -> k)
      ~src:pn.addr ~dst:reply_to
      (fun () -> reply succ (hops + 1))
  else begin
    let next = closest_preceding pn r ~key in
    post t ~kind ~src:pn.addr ~dst:next.paddr (fun pn' ->
        handle_find_successor t pn' ~kind:Netspan.Forward ~layer ~key ~hops:(hops + 1) ~reply_to
          ~reply)
  end

let resolve_self t pn ~kind ~via ~layer adopt =
  post t ~kind ~src:pn.addr ~dst:via (fun vpn ->
      handle_find_successor t vpn ~kind:Netspan.Forward ~layer ~key:pn.id ~hops:0
        ~reply_to:pn.addr ~reply:(fun p _ -> adopt p))

let find_successor t ~kind ~src ~layer ~key ~retries ~ok ~failed =
  let rec attempt n =
    race t ~node:src
      (fun settled ->
        match Hashtbl.find_opt t.nodes src with
        | None -> ()
        | Some pn ->
            handle_find_successor t pn ~kind ~layer ~key ~hops:(-1) ~reply_to:src
              ~reply:(fun p h -> if claim settled then ok p h))
      ~expired:(fun () -> if n > 0 then attempt (n - 1) else failed ())
  in
  attempt retries

(* --- periodic maintenance --------------------------------------------- *)

(* Split-ring healing: parallel rings (formed under heavy loss or
   simultaneous joins) never merge through stabilize alone, because no
   notify crosses rings. Periodically each node asks its anchor's ring for
   its own successor and adopts the answer when it is closer than the
   current one; since every join anchors at the same long-lived peer, that
   ring is authoritative and stray rings drain into it. *)
let anchor_crosscheck_period = 8

(* Entries that are already gone are dropped at adoption (a quick liveness
   ping in a real deployment): a dead entry adopted from a neighbour's stale
   list would poison closest_preceding from the tail, where no stabilize
   timeout ever examines it — lists heal head-first only, and in a small
   lower-layer ring that can wedge routing permanently. *)
let truncate_succs t pn l =
  let seen = Hashtbl.create 8 in
  let deduped =
    List.filter
      (fun p ->
        if p.paddr = pn.addr || Hashtbl.mem seen p.paddr || not (Engine.is_alive t.eng p.paddr)
        then false
        else begin
          Hashtbl.replace seen p.paddr ();
          true
        end)
      l
  in
  List.filteri (fun i _ -> i < t.cfg.succ_list_len) deduped

let rearm t pn period f = Engine.timer t.eng ~node:pn.addr ~delay:(period *. t.scale) f

let anchor_usable t pn = pn.anchor <> pn.addr && Engine.is_alive t.eng pn.anchor

let ask_anchor t pn adopt =
  maint t `Stabilize;
  resolve_self t pn ~kind:Netspan.Stabilize ~via:pn.anchor ~layer:1 adopt

let rec stabilize t pn ~layer =
  let r = ring pn ~layer in
  let succ = current_successor pn r in
  if succ.paddr = pn.addr then begin
    (* self-ring: adopt our predecessor as successor once one shows up;
       failing that, re-enter the global ring through the anchor *)
    (match r.pred with
    | Some p when p.paddr <> pn.addr -> r.succs <- [ p ]
    | _ ->
        if layer = 1 && anchor_usable t pn then
          ask_anchor t pn (fun p ->
              if (current_successor pn r).paddr = pn.addr && p.paddr <> pn.addr then
                r.succs <- [ p ]));
    schedule_stabilize t pn ~layer
  end
  else begin
    maint t `Stabilize;
    ask t ~kind:Netspan.Stabilize ~src:pn.addr ~dst:succ.paddr
      ~service:(fun spn ->
        let sr = ring spn ~layer in
        (sr.pred, self_peer spn :: sr.succs))
      ~ok:(fun (spred, slist) ->
        r.succ_suspect <- 0;
        (match spred with
        | Some x when x.paddr <> pn.addr && Id.in_oo x.pid ~lo:pn.id ~hi:succ.pid ->
            (* a closer successor exists between us and our successor *)
            r.succs <- truncate_succs t pn (x :: slist)
        | _ ->
            (* refresh our successor list from the successor's *)
            r.succs <- truncate_succs t pn slist);
        if layer = 1 then begin
          pn.stabilize_rounds <- pn.stabilize_rounds + 1;
          if pn.stabilize_rounds mod anchor_crosscheck_period = 0 && anchor_usable t pn then
            ask_anchor t pn (fun p ->
                let cur = current_successor pn r in
                if
                  p.paddr <> pn.addr
                  && (cur.paddr = pn.addr || Id.in_oo p.pid ~lo:pn.id ~hi:cur.pid)
                then r.succs <- truncate_succs t pn (p :: r.succs))
        end;
        (* notify: we believe we are their predecessor *)
        maint t `Notify;
        post t ~kind:Netspan.Notify ~src:pn.addr ~dst:(current_successor pn r).paddr (fun spn ->
            let sr = ring spn ~layer and candidate = self_peer pn in
            match sr.pred with
            | None -> sr.pred <- Some candidate
            | Some p when Id.in_oo candidate.pid ~lo:p.pid ~hi:spn.id -> sr.pred <- Some candidate
            | Some _ -> ());
        schedule_stabilize t pn ~layer)
      ~timeout:(fun () ->
        (* only declare the successor dead after two consecutive silent
           rounds — one lost reply is routine under message loss *)
        r.succ_suspect <- r.succ_suspect + 1;
        if r.succ_suspect >= 2 && (current_successor pn r).paddr = succ.paddr then begin
          r.succ_suspect <- 0;
          expunge r succ.paddr;
          if r.succs = [] then r.succs <- [ self_peer pn ]
        end;
        schedule_stabilize t pn ~layer)
  end

and schedule_stabilize t pn ~layer =
  rearm t pn t.cfg.stabilize_every (fun () -> stabilize t pn ~layer)

let rec fix_fingers t pn ~layer =
  let r = ring pn ~layer in
  let bits = Id.bits t.cfg.space in
  for _ = 1 to min t.cfg.fingers_per_round bits do
    let i = r.next_finger in
    r.next_finger <- (r.next_finger + 1) mod bits;
    let start = Id.add_pow2 t.cfg.space pn.id i in
    maint t `Fix;
    find_successor t ~kind:Netspan.Fix_fingers ~src:pn.addr ~layer ~key:start ~retries:0
      ~ok:(fun p _ -> r.fingers.(i) <- Some p)
      ~failed:(fun () ->
        (* unresolvable finger: clear it rather than keep a possibly-dead
           entry steering closest_preceding into a black hole — with the
           slot empty, routing falls back to lower fingers and the
           successor list until a later round re-resolves it *)
        r.fingers.(i) <- None)
  done;
  rearm t pn t.cfg.fix_fingers_every (fun () -> fix_fingers t pn ~layer)

let rec check_predecessor t pn ~layer =
  let r = ring pn ~layer in
  (match r.pred with
  | Some p when p.paddr <> pn.addr ->
      maint t `Check;
      ask t ~kind:Netspan.Check_pred ~src:pn.addr ~dst:p.paddr
        ~service:(fun _ -> ())
        ~ok:(fun () -> ())
        ~timeout:(fun () ->
          match r.pred with Some q when q.paddr = p.paddr -> r.pred <- None | _ -> ())
  | _ -> ());
  rearm t pn t.cfg.check_pred_every (fun () -> check_predecessor t pn ~layer)

let start_rings t pn =
  for layer = 1 to Array.length pn.rings do
    schedule_stabilize t pn ~layer;
    Engine.timer t.eng ~node:pn.addr ~delay:t.cfg.fix_fingers_every (fun () ->
        fix_fingers t pn ~layer);
    Engine.timer t.eng ~node:pn.addr ~delay:t.cfg.check_pred_every (fun () ->
        check_predecessor t pn ~layer)
  done

(* --- lifecycle --------------------------------------------------------- *)

let fresh_node t ~addr ~id ext =
  if Hashtbl.mem t.nodes addr then invalid_arg (t.who ^ ": address already in use");
  let pn =
    {
      addr;
      id;
      rings =
        Array.map
          (fun _ ->
            {
              pred = None;
              succs = [];
              fingers = Array.make (Id.bits t.cfg.space) None;
              next_finger = 0;
              succ_suspect = 0;
            })
          t.stabs;
      anchor = addr;
      stabilize_rounds = 0;
      ext;
    }
  in
  Hashtbl.replace t.nodes addr pn;
  pn

let spawn t pn ~start =
  Array.iter (fun r -> r.succs <- [ self_peer pn ]) pn.rings;
  start pn;
  perturb t;
  ensure_probe t;
  emit_churn t

let enter t pn ~bootstrap =
  pn.anchor <- bootstrap;
  perturb t;
  ensure_probe t;
  Obs.Timeseries.add t.ts_joins ~at:(Engine.now t.eng) 1.0;
  emit_churn t

let join_global t pn ~bootstrap ~joined =
  let rec attempt n =
    (* route the join query through the bootstrap node *)
    race t ~node:pn.addr
      (fun settled ->
        resolve_self t pn ~kind:Netspan.Join ~via:bootstrap ~layer:1 (fun p ->
            if claim settled then begin
              pn.rings.(0).succs <- [ p ];
              joined ()
            end))
      ~expired:(fun () ->
        (* a node that never joins is lost forever: keep retrying, with a
           longer pause once the initial retry budget is spent *)
        let backoff = if n > 0 then 0.0 else 4.0 *. t.cfg.rpc_timeout in
        Engine.timer t.eng ~node:pn.addr ~delay:backoff (fun () -> attempt (max 0 (n - 1))))
  in
  attempt t.cfg.lookup_retries

let join_completed t = Obs.Timeseries.add t.ts_join_done ~at:(Engine.now t.eng) 1.0

let fail_node t addr =
  if not (Hashtbl.mem t.nodes addr) then invalid_arg (t.who ^ ".fail_node: unknown node");
  Engine.kill t.eng addr;
  perturb t;
  Obs.Timeseries.add t.ts_fails ~at:(Engine.now t.eng) 1.0;
  emit_churn t

let export_metrics ?(extra = []) t ~prefix m =
  let c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ ".maint." ^ name)) v in
  Array.iteri (fun i name -> c name t.maint.(i)) maint_names;
  List.iter (fun (name, v) -> c name v) extra;
  c "total" (List.fold_left (fun acc (_, v) -> acc + v) (maintenance_ops t) extra);
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ ".maint.scale")) t.scale;
  Array.iteri
    (fun i s ->
      let layer = if Array.length t.stabs = 1 then "" else Printf.sprintf ".layer%d" (i + 1) in
      Simnet.Stability.export_metrics ~prefix:(prefix ^ layer ^ ".stability") s m)
    t.stabs

type overlay = {
  engine : Engine.t;
  depth : int;
  join : addr:int -> id:Id.t -> bootstrap:int -> unit;
  fail : int -> unit;
  lookup : origin:int -> key:Id.t -> (peer option -> unit) -> unit;
  node_id : int -> Id.t;
  is_member : int -> bool;
  live_members : unit -> int list;
  predecessor : int -> int option;
  successor : int -> int option;
  successors : int -> int list;
  stability : layer:int -> Simnet.Stability.t;
  converged : unit -> bool;
  maintenance_ops : unit -> int;
}

let overlay t ~join ~lookup ~maintenance_ops =
  {
    engine = t.eng;
    depth = Array.length t.stabs;
    join;
    fail = fail_node t;
    lookup;
    node_id = node_id t;
    is_member = is_member t;
    live_members = (fun () -> live_members t);
    predecessor = (fun a -> predecessor_addr t a ~layer:1);
    successor = (fun a -> successor_addr t a ~layer:1);
    successors = (fun a -> successor_list_addrs t a ~layer:1);
    stability = stability t;
    converged = (fun () -> converged t);
    maintenance_ops;
  }
