module R = Ring_proto

type config = R.config = {
  space : Hashid.Id.space;
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

(* Chord is the depth-1 instance of the ring core: one global ring per node
   and no per-node extension. *)
type t = unit R.t

let create ?ts cfg eng = R.create ?ts ~who:"Chord.Protocol" ~name:"chord" ~depth:1 cfg eng
let engine = R.engine
let config = R.config
let stability t = R.stability t ~layer:1
let converged = R.converged
let interval_scale = R.interval_scale
let maintenance_ops = R.maintenance_ops
let is_member = R.is_member
let node_id = R.node_id
let successor_addr t addr = R.successor_addr t addr ~layer:1
let predecessor_addr t addr = R.predecessor_addr t addr ~layer:1
let successor_list_addrs t addr = R.successor_list_addrs t addr ~layer:1
let finger_addrs t addr = R.finger_addrs t addr ~layer:1
let ring_from t start = R.ring_from t start ~layer:1
let live_members = R.live_members

let spawn t ~addr ~id = R.spawn t (R.fresh_node t ~addr ~id ()) ~start:(R.start_rings t)

let join t ~addr ~id ~bootstrap =
  let pn = R.fresh_node t ~addr ~id () in
  R.enter t pn ~bootstrap;
  R.join_global t pn ~bootstrap ~joined:(fun () ->
      R.start_rings t pn;
      R.join_completed t)

let fail_node = R.fail_node

type lookup_outcome = { owner_addr : int; owner_id : Hashid.Id.t; hops : int; retries : int }

let lookup t ~origin ~key k =
  let rec attempt budget tries =
    R.find_successor t ~kind:Obs.Netspan.Lookup ~src:origin ~layer:1 ~key ~retries:0
      ~ok:(fun (p : R.peer) hops ->
        k (Some { owner_addr = p.paddr; owner_id = p.pid; hops; retries = tries }))
      ~failed:(fun () -> if budget > 0 then attempt (budget - 1) (tries + 1) else k None)
  in
  attempt (R.config t).lookup_retries 0

let overlay t =
  R.overlay t ~join:(join t)
    ~maintenance_ops:(fun () -> R.maintenance_ops t)
    ~lookup:(fun ~origin ~key k ->
      lookup t ~origin ~key (fun r ->
          k (Option.map (fun o -> { R.paddr = o.owner_addr; pid = o.owner_id }) r)))

let export_metrics ?(prefix = "chord.protocol") t m = R.export_metrics t ~prefix m
