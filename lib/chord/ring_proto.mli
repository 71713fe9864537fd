(** Per-ring Chord maintenance on {!Simnet.Engine}: the one implementation
    of stabilize / notify / fix-fingers / check-predecessor, request/response
    with timeout, recursive find-successor, failure suspicion, split-ring
    healing and the convergence probe, shared by {!Protocol} (one ring) and
    [Hieras.Hprotocol] (one ring per layer).

    {b Ring handle.} Every node keeps one {!ring} state block per layer in
    [rings]; a ring is named by the node and its paper layer, [~layer] in
    [1 .. depth], with layer 1 the global ring. Every per-ring operation
    takes [~layer] and touches only that block, so a protocol with [depth]
    layers runs [depth] independent Chord rings over one node table. The
    [ext] field carries protocol-specific node state.

    {b Global-ring only.} Two behaviours use the node's [anchor] (its
    bootstrap peer) and run on layer 1 alone: the anchor re-join, by which a
    node whose global successor list emptied into a self-ring with no
    predecessor asks the anchor to resolve its own id; and the anchor
    cross-check, by which every eighth successful global stabilize asks the
    anchor the same question and adopts a closer answer, draining parallel
    rings into the anchor's. Lower rings recover through the caller's own
    means (HIERAS ring tables).

    {b Convergence.} A message-free probe, started by the first spawn or
    join, fingerprints every layer each [stabilize_every] ms (live members
    in address order, with each one's predecessor, successor list and
    fingers) into that layer's {!Simnet.Stability} detector. With
    [adaptive], every maintenance period doubles while all layers are
    stable, up to [backoff_max], and snaps back on any change or lifecycle
    event.

    {b Overlay.} {!overlay} is the one uniform view of a running protocol
    (global-ring pointers, lookup, lifecycle, convergence) that the store
    and the experiments drive; each protocol adapts itself once.

    Every [Engine.send] / [Engine.timer] is issued in a fixed order per
    operation: engine sequence numbers and loss draws depend on it. *)

type config = {
  space : Hashid.Id.space;
  stabilize_every : float;
  fix_fingers_every : float;
  check_pred_every : float;
  fingers_per_round : int;
  succ_list_len : int;
  rpc_timeout : float;
  lookup_retries : int;  (** also the bootstrap join's immediate retries *)
  stability_k : int;
  adaptive : bool;
  backoff_max : float;
}
(** As {!Protocol.config}. *)

type peer = { paddr : int; pid : Hashid.Id.t }

type ring = {
  mutable pred : peer option;
  mutable succs : peer list;  (** head = immediate successor; never empty once live *)
  fingers : peer option array;
  mutable next_finger : int;  (** next slot fix-fingers refreshes *)
  mutable succ_suspect : int;
      (** consecutive stabilize timeouts against the current successor *)
}

type 'x node = {
  addr : int;
  id : Hashid.Id.t;
  rings : ring array;  (** [rings.(layer - 1)] *)
  mutable anchor : int;  (** bootstrap peer; [addr] for the first node *)
  mutable stabilize_rounds : int;  (** successful global stabilize rounds *)
  ext : 'x;
}

type 'x t
(** The node table, engine, per-layer detectors, maintenance counters and
    churn series of one protocol instance. *)

val create :
  ?ts:Obs.Timeseries.t ->
  ?gauges:(at:float -> 'x node list -> unit) ->
  who:string ->
  name:string ->
  depth:int ->
  config ->
  Simnet.Engine.t ->
  'x t
(** [depth] rings per node, series [<name>.members], [.joins],
    [.joins_completed], [.fails], [.maint.ops], [.maint.scale] and
    [.stable] (see {!Protocol.create}). [gauges] runs after the membership
    gauge on every lifecycle event, with the live nodes in address order,
    when [ts] is enabled. [who] prefixes [Invalid_argument] messages, raised
    if [stability_k < 1] or [backoff_max < 1]. *)

val engine : 'x t -> Simnet.Engine.t
val config : 'x t -> config
val nodes : 'x t -> (int, 'x node) Hashtbl.t
val stability : 'x t -> layer:int -> Simnet.Stability.t
(** The layer's detector. Raises [Invalid_argument] outside [1 .. depth]. *)

val converged : 'x t -> bool
val interval_scale : 'x t -> float
val maintenance_ops : 'x t -> int
(** Stabilize + notify + fix-fingers + check-predecessor RPCs initiated. *)

val count_maint : 'x t -> unit
(** Count one caller-specific maintenance RPC in [<name>.maint.ops]. *)

val self_peer : 'x node -> peer
val ring : 'x node -> layer:int -> ring
val is_member : 'x t -> int -> bool
val node_id : 'x t -> int -> Hashid.Id.t
val successor_addr : 'x t -> int -> layer:int -> int option
val predecessor_addr : 'x t -> int -> layer:int -> int option
val successor_list_addrs : 'x t -> int -> layer:int -> int list
val finger_addrs : 'x t -> int -> layer:int -> int option array
val ring_from : 'x t -> int -> layer:int -> int list

val live_members : 'x t -> int list
(** Members alive in the engine, ascending; cached until a node is added
    or the engine kills or revives one. *)

(** {2 Messages and routing} *)

val post :
  'x t -> kind:Obs.Netspan.kind -> src:int -> dst:int -> ('x node -> unit) -> unit
(** One-way message: the callback runs on [dst]'s node state on arrival
    (dropped if [dst] never joined). *)

val claim : bool ref -> bool
(** [true] on the first call only; sets the flag. *)

val race : 'x t -> node:int -> (bool ref -> unit) -> expired:(unit -> unit) -> unit
(** [race t ~node issue ~expired] runs [issue settled] with a fresh flag,
    then after [rpc_timeout] runs [expired] if [claim settled]. Reply
    handlers claim the same flag: whichever comes second is ignored. *)

val ask :
  'x t ->
  kind:Obs.Netspan.kind ->
  src:int ->
  dst:int ->
  service:('x node -> 'a) ->
  ok:('a -> unit) ->
  timeout:(unit -> unit) ->
  unit
(** Request/response with timeout: [service] runs at [dst] and its result
    travels back in a [Reply]; exactly one of [ok] and [timeout] runs.
    [kind] labels the request span. *)

val current_successor : 'x node -> ring -> peer
val closest_preceding : 'x node -> ring -> key:Hashid.Id.t -> peer
(** Best known hop strictly inside (node, key): fingers, then the
    successor list; falls back to the immediate successor. *)

val truncate_succs : 'x t -> 'x node -> peer list -> peer list
(** Successor-list hygiene: drop the node itself, duplicates (keeping the
    closest) and peers already dead, then cap at [succ_list_len]. *)

val handle_find_successor :
  'x t ->
  'x node ->
  kind:Obs.Netspan.kind ->
  layer:int ->
  key:Hashid.Id.t ->
  hops:int ->
  reply_to:int ->
  reply:(peer -> int -> unit) ->
  unit
(** Resolve [key] on one layer by recursive forwarding from this node; the
    owner's answer goes straight to [reply_to]. [kind] is the span kind of
    the next send: the initiating RPC's on the first, [Forward] on
    recursive hops, [Reply] on the answer. *)

val resolve_self :
  'x t -> 'x node -> kind:Obs.Netspan.kind -> via:int -> layer:int -> (peer -> unit) -> unit
(** Send [kind] to [via], which resolves the node's own id on [layer]; the
    answer is the node's successor there. No timeout. *)

val find_successor :
  'x t ->
  kind:Obs.Netspan.kind ->
  src:int ->
  layer:int ->
  key:Hashid.Id.t ->
  retries:int ->
  ok:(peer -> int -> unit) ->
  failed:(unit -> unit) ->
  unit
(** {!handle_find_successor} from [src], re-issued up to [retries] times on
    timeout before [failed]. *)

(** {2 Maintenance and lifecycle} *)

val rearm : 'x t -> 'x node -> float -> (unit -> unit) -> unit
(** [rearm t pn period f] runs [f] at [pn] after [period] times the current
    {!interval_scale}: how every periodic duty re-arms itself. *)

val start_rings : 'x t -> 'x node -> unit
(** Arm stabilize, fix-fingers and check-predecessor on every layer, layer
    1 first. Stabilize expunges the successor after two consecutive silent
    rounds; fix-fingers clears a slot that fails to resolve; check-
    predecessor clears a silent predecessor. *)

val fresh_node : 'x t -> addr:int -> id:Hashid.Id.t -> 'x -> 'x node
(** Add a node with [depth] empty rings. Raises [Invalid_argument] if the
    address is taken. *)

val spawn : 'x t -> 'x node -> start:('x node -> unit) -> unit
(** First node: every ring a one-node ring, then [start], then the probe
    and churn bookkeeping. *)

val enter : 'x t -> 'x node -> bootstrap:int -> unit
(** Join bookkeeping: anchor, detectors, probe, join count. *)

val join_global : 'x t -> 'x node -> bootstrap:int -> joined:(unit -> unit) -> unit
(** Learn the global successor through [bootstrap], then run [joined].
    Retries forever: [lookup_retries] immediate retries, then a pause of
    [4 * rpc_timeout] before each further attempt. *)

val join_completed : 'x t -> unit
val emit_churn : 'x t -> unit
(** Refresh the membership gauge and [gauges]; free when [ts] is disabled. *)

val fail_node : 'x t -> int -> unit

val export_metrics : ?extra:(string * int) list -> 'x t -> prefix:string -> Obs.Metrics.t -> unit
(** As {!Protocol.export_metrics}, with each [extra] counter exported
    before [total] and counted in it; with more than one layer the
    detectors go under [<prefix>.layer<k>.stability]. *)

(** {2 The overlay view} *)

type overlay = {
  engine : Simnet.Engine.t;
  depth : int;  (** rings per node; 1 for Chord *)
  join : addr:int -> id:Hashid.Id.t -> bootstrap:int -> unit;
  fail : int -> unit;  (** {!fail_node} *)
  lookup : origin:int -> key:Hashid.Id.t -> (peer option -> unit) -> unit;
      (** the protocol's own lookup, answering the owner; [None] after its
          retries *)
  node_id : int -> Hashid.Id.t;
  is_member : int -> bool;
  live_members : unit -> int list;
  predecessor : int -> int option;  (** global-ring (layer 1) predecessor *)
  successor : int -> int option;  (** global-ring successor *)
  successors : int -> int list;  (** global-ring successor list *)
  stability : layer:int -> Simnet.Stability.t;  (** {!stability} *)
  converged : unit -> bool;
  maintenance_ops : unit -> int;
}
(** The one uniform view of a running protocol, whatever its depth: what
    the replicated store, the soak and the cache experiment drive. Every
    pointer is a global-ring pointer, because ownership is decided on the
    global ring (paper §3.3); the lower rings only shorten the route that
    [lookup] takes to it. *)

val overlay :
  'x t ->
  join:(addr:int -> id:Hashid.Id.t -> bootstrap:int -> unit) ->
  lookup:(origin:int -> key:Hashid.Id.t -> (peer option -> unit) -> unit) ->
  maintenance_ops:(unit -> int) ->
  overlay
(** Every field from this core's own functions except the three the
    protocol supplies: its join sequence, its lookup, and its maintenance
    count (HIERAS adds its ring-table duties to the core's). *)
