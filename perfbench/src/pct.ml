(* Percentiles reported the way the benchmark promises: the median, and the
   highest percentile that still has at least ten samples beyond it, always
   with the sample count. Linear interpolation between the two order
   statistics around position (n - 1) q. *)

let min_beyond = 10

(* Candidate tails, highest first. *)
let candidates = [ 0.9999; 0.999; 0.99; 0.9; 0.5 ]

let position n q = float_of_int (n - 1) *. q

(* Samples ranked above the position of [q]. *)
let beyond n q = n - 1 - int_of_float (position n q)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.quantile: no samples";
  let h = position n q in
  let lo = int_of_float h in
  if lo >= n - 1 then sorted.(n - 1)
  else sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(lo + 1) -. sorted.(lo)))

let sorted_copy samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

type tail = { q : float; value : float; count : int }

let trusted n q = n > 0 && beyond n q >= min_beyond

(* The highest candidate percentile with [min_beyond] samples past it
   among [n]; [None] when even the median has fewer. *)
let highest_q n = List.find_opt (trusted n) candidates

let highest_tail samples =
  let sorted = sorted_copy samples in
  let n = Array.length sorted in
  Option.map (fun q -> { q; value = quantile sorted q; count = n }) (highest_q n)

(* The value at [q] only when [q]'s tail holds enough samples to trust it. *)
let checked samples q =
  let sorted = sorted_copy samples in
  if trusted (Array.length sorted) q then Some (quantile sorted q) else None

(* One report line: median, highest trusted tail and the sample count. *)
let describe ~what ~median ~tail =
  match tail with
  | Some t ->
      Printf.sprintf "%s: median %.1f ms, p%g %.1f ms, %d samples" what median (100.0 *. t.q) t.value
        t.count
  | None -> Printf.sprintf "%s: too few samples for a tail" what

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Pct.median: empty"
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
