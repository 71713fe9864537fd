(* Clocks, memory and the timing loops shared by the workloads. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Peak resident set of this process (VmHWM), in MB. A reading of zero
   means the figure is unavailable, which fails the run. *)
let peak_rss_mb rep =
  let kb = Experiments.Scale.peak_rss_kb () in
  Perfbench.Report.check rep (kb > 0) "peak resident set (VmHWM) unavailable";
  float_of_int kb /. 1024.0

(* Mean wall ns of one [f i] over [n] calls, repeated at least five times
   and for at least 50 ms, reporting the median repetition. The result is
   only kept opaque, so the figure is the call's cost alone. *)
let ns_per_call ~n f =
  let one () =
    let t0 = now () in
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (f i))
    done;
    (now () -. t0) *. 1e9 /. float_of_int n
  in
  ignore (one ());
  let samples = ref [] and spent = ref 0.0 in
  while List.length !samples < 5 || !spent < 0.05 do
    let v = one () in
    samples := v :: !samples;
    spent := !spent +. (v *. float_of_int n /. 1e9)
  done;
  Perfbench.Pct.median !samples

(* Run [setup] [reps] times (full GC before each, so each starts from the
   same heap); return the last result with the median duration. *)
let repeated_setup ~reps setup =
  let last = ref None and times = ref [] in
  for _ = 1 to reps do
    last := None;
    Gc.compact ();
    let r, dt = timed setup in
    last := Some r;
    times := dt :: !times
  done;
  (Option.get !last, Perfbench.Pct.median !times)

(* Run [round] on the same inputs at least [min] times and until [seconds]
   passed. Every round must reproduce the first round's signature exactly.
   Returns the results in run order and the peak resident set after the
   first [min] rounds, whose allocation history does not depend on the
   machine's speed. *)
let rounds rep ~min ~seconds ~round ~signature =
  let t0 = now () in
  let first = ref None and out = ref [] and i = ref 0 and rss = ref 0.0 in
  while !i < min || now () -. t0 < seconds do
    let r = round () in
    let s = signature r in
    (match !first with
    | None -> first := Some s
    | Some s0 ->
        Perfbench.Report.check rep (s = s0)
          "a repeated round with the same inputs gave different results");
    out := r :: !out;
    incr i;
    if !i = min then rss := peak_rss_mb rep
  done;
  (List.rev !out, !rss)

let pct_overhead ~base ~traced = if base <= 0.0 then 0.0 else 100.0 *. (traced -. base) /. base

(* Deterministic sub-seeds, so every input stream of a run is a pure
   function of the --seed argument. *)
let sub_seed seed salt = (seed * 1_000_003) + salt

let log fmt = Printf.ksprintf print_endline fmt
