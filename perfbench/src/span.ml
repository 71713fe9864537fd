(* Wall-clock spans recorded around each public call into a layer, kept in
   memory and written once at exit. Synchronous spans nest on a stack, so
   a layer's self time is its spans' duration minus the part their child
   spans cover. Asynchronous operations (a lookup from issue to callback)
   run inside engine slices, not under them: they are recorded with their
   parent but left out of self time. *)

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** 0 for a root *)
  t0 : float;
  mutable t1 : float;
  async : bool;
}

type t = {
  enabled : bool;
  workload : string;
  clock : unit -> float;
  mutable spans : span list;  (* newest first *)
  mutable stack : span list;
  mutable next : int;
  open_async : (int, span) Hashtbl.t;
}

let create ~workload ~clock =
  {
    enabled = true;
    workload;
    clock;
    spans = [];
    stack = [];
    next = 1;
    open_async = Hashtbl.create 64;
  }

let disabled =
  {
    enabled = false;
    workload = "";
    clock = (fun () -> 0.0);
    spans = [];
    stack = [];
    next = 1;
    open_async = Hashtbl.create 1;
  }

let enabled t = t.enabled
let parent_id t = match t.stack with [] -> 0 | s :: _ -> s.id

let fresh t ~layer ~async name =
  let s = { id = t.next; name; layer; parent = parent_id t; t0 = t.clock (); t1 = nan; async } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

let with_span t ~layer name f =
  if not t.enabled then f ()
  else begin
    let s = fresh t ~layer ~async:false name in
    t.stack <- s :: t.stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- t.clock ();
        t.stack <- List.tl t.stack)
  end

(* Open an asynchronous span; returns 0 (a no-op handle) when disabled. *)
let start_async t ~layer name =
  if not t.enabled then 0
  else begin
    let s = fresh t ~layer ~async:true name in
    Hashtbl.replace t.open_async s.id s;
    s.id
  end

let finish_async t id =
  match Hashtbl.find_opt t.open_async id with
  | None -> ()
  | Some s ->
      s.t1 <- t.clock ();
      Hashtbl.remove t.open_async id

let spans t = List.rev t.spans

(* Self time per layer over the closed synchronous spans, sorted by layer. *)
let self_times t =
  let closed = List.filter (fun s -> (not s.async) && Float.is_finite s.t1) t.spans in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0 +. (s.t1 -. s.t0)))
    closed;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0 in
      Hashtbl.replace per_layer s.layer
        (Option.value (Hashtbl.find_opt per_layer s.layer) ~default:0.0 +. own))
    closed;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) per_layer [] |> List.sort compare

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        {|{"id":%d,"name":"%s","layer":"%s","parent":%d,"start":%.9f,"end":%s,"async":%b,"workload":"%s"}|}
        s.id s.name s.layer s.parent s.t0
        (if Float.is_finite s.t1 then Printf.sprintf "%.9f" s.t1 else "null")
        s.async t.workload;
      Buffer.add_char b '\n')
    (spans t);
  Buffer.contents b
