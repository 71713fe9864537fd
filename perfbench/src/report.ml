(* The run's verdict and metrics, rendered as the one JSON line the
   benchmark's caller reads: exactly the keys correct / attempted / failed /
   metrics, and exactly the end-to-end (untraced) or per-layer (traced)
   metric names of {!Spec}. A metric the workload never set is a layer it
   bypasses and reads 0. *)

type t = {
  values : (string, float) Hashtbl.t;
  mutable correct : bool;
  mutable problems : string list;  (* newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create () =
  { values = Hashtbl.create 128; correct = true; problems = []; attempted = 0; failed = 0 }

let set t name v =
  if Spec.find name = None then invalid_arg ("Report.set: unknown metric " ^ name);
  Hashtbl.replace t.values name v

let seti t name v = set t name (float_of_int v)
let get t name = Option.value (Hashtbl.find_opt t.values name) ~default:0.0

(* A failed output check: the run is incorrect, with the reason kept. *)
let reject t why =
  t.correct <- false;
  t.problems <- why :: t.problems

let check t cond why = if not cond then reject t why
let problems t = List.rev t.problems

let count_ops t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let number v = Printf.sprintf "%.17g" v

let to_json t ~trace =
  let finite = List.for_all (fun m -> Float.is_finite (get t m.Spec.name)) (Spec.expected ~trace) in
  if not finite then reject t "a metric is not a finite number";
  if t.attempted < 1 then reject t "no operation was attempted";
  let metric m =
    let v = get t m.Spec.name in
    Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} m.Spec.name
      (number (if Float.is_finite v then v else 0.0))
      m.Spec.unit_
  in
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} t.correct
    t.attempted t.failed
    (String.concat "," (List.map metric (Spec.expected ~trace)))
