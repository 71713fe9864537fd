(* Benchmark entry point:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
   Runs one workload through the library's public calls, checks its
   outputs, prints a short report and, as the last line of stdout, one
   JSON object {correct, attempted, failed, metrics}. Untraced runs report
   the end-to-end metrics; traced runs report the per-layer metrics and
   write their spans to .perfbench_out/<workload>-<seed>.spans.jsonl. *)

module Report = Perfbench.Report
module Span = Perfbench.Span

let usage =
  "usage: main.exe --workload (paper-replay|ring-soak|kv-zipf) --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest -> (
        let int_of v = match int_of_string_opt v with Some n -> n | None -> die (flag ^ " wants a whole number") in
        match flag with
        | "--workload" -> go { acc with workload = value } rest
        | "--seed" -> go { acc with seed = int_of value } rest
        | "--seconds" ->
            let s = int_of value in
            if s < 1 then die "--seconds must be at least 1";
            go { acc with seconds = float_of_int s } rest
        | "--trace" -> (
            match value with
            | "0" -> go { acc with trace = false } rest
            | "1" -> go { acc with trace = true } rest
            | _ -> die "--trace wants 0 or 1")
        | _ -> die ("unknown argument " ^ flag))
    | [ flag ] -> die (flag ^ " wants a value")
  in
  let a = go { workload = ""; seed = 0; seconds = 10.0; trace = false } (List.tl (Array.to_list argv)) in
  if not (List.mem_assoc a.workload Perfbench.Spec.workloads) then
    die (Printf.sprintf "unknown workload %S" a.workload);
  a

let out_dir = ".perfbench_out"

let write_spans spans ~workload ~seed =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "%s-%d.spans.jsonl" workload seed) in
  Out_channel.with_open_text path (fun oc -> output_string oc (Span.to_jsonl spans));
  path

let () =
  let a = parse Sys.argv in
  let rep = Report.create () in
  Util.log "perfbench %s seed %d (%s, %.0f s)" a.workload a.seed
    (if a.trace then "traced" else "untraced")
    a.seconds;
  (if a.trace then begin
     let spans = Span.create ~workload:a.workload ~clock:Util.now in
     (match a.workload with
     | "paper-replay" -> Paper_replay.traced rep ~spans ~seed:a.seed
     | "ring-soak" -> Ring_soak.traced rep ~spans ~seed:a.seed
     | _ -> Kv_zipf.traced rep ~spans ~seed:a.seed);
     Util.log "  self time by layer (s):";
     List.iter (fun (layer, s) -> Util.log "    %-14s %.3f" layer s) (Span.self_times spans);
     Util.log "  spans written to %s" (write_spans spans ~workload:a.workload ~seed:a.seed)
   end
   else
     match a.workload with
     | "paper-replay" -> Paper_replay.untraced rep ~seed:a.seed ~seconds:a.seconds
     | "ring-soak" -> Ring_soak.untraced rep ~seed:a.seed ~seconds:a.seconds
     | _ -> Kv_zipf.untraced rep ~seed:a.seed ~seconds:a.seconds);
  List.iter (fun p -> Util.log "  CHECK FAILED: %s" p) (Report.problems rep);
  print_endline (Report.to_json rep ~trace:a.trace)
