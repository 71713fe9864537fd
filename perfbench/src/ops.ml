(* Per-operation accounting: every issued lookup, put or get ends in
   exactly one bucket — answered correctly, answered wrongly, reported as
   failed by the program, lost with an origin that died before answering,
   or never called back although its origin lived. The last is a broken
   promise of the program (each operation gets exactly one callback), as
   is a second callback for the same operation. *)

type outcome = Ok | Wrong | Failed

type t = {
  mutable state : int array;  (* 0 pending, 1 ok, 2 wrong, 3 failed *)
  mutable origin : int array;
  mutable issued : int;
  mutable doubles : int;
}

let create () = { state = Array.make 64 0; origin = Array.make 64 0; issued = 0; doubles = 0 }

let grow a n =
  let bigger = Array.make (2 * n) 0 in
  Array.blit a 0 bigger 0 n;
  bigger

let issue t ~origin =
  if t.issued = Array.length t.state then begin
    t.state <- grow t.state t.issued;
    t.origin <- grow t.origin t.issued
  end;
  let id = t.issued in
  t.state.(id) <- 0;
  t.origin.(id) <- origin;
  t.issued <- id + 1;
  id

let code = function Ok -> 1 | Wrong -> 2 | Failed -> 3

let complete t id outcome =
  if id < 0 || id >= t.issued then invalid_arg "Ops.complete: unknown operation";
  if t.state.(id) <> 0 then t.doubles <- t.doubles + 1 else t.state.(id) <- code outcome

type summary = {
  issued : int;
  ok : int;
  wrong : int;
  failed : int;
  lost : int;  (** never called back, origin dead at the end *)
  never : int;  (** never called back, origin alive at the end *)
  doubles : int;  (** callbacks beyond the first *)
}

(* Close the books: pending operations are split by whether their origin
   is still alive. *)
let summary (t : t) ~alive =
  let counts = Array.make 4 0 and lost = ref 0 in
  for i = 0 to t.issued - 1 do
    let s = t.state.(i) in
    if s = 0 && not (alive t.origin.(i)) then incr lost else counts.(s) <- counts.(s) + 1
  done;
  {
    issued = t.issued;
    ok = counts.(1);
    wrong = counts.(2);
    failed = counts.(3);
    lost = !lost;
    never = counts.(0);
    doubles = t.doubles;
  }

(* Every bucket but [ok] is a failure; a callback that never fires is one. *)
let not_ok s = s.wrong + s.failed + s.lost + s.never

let fail_ratio s = if s.issued = 0 then 0.0 else float_of_int (not_ok s) /. float_of_int s.issued

(* Operations on which the program broke its one-callback promise. *)
let broken s = s.never + s.doubles

(* The accounting identity the run asserts. *)
let balanced s = s.ok + s.wrong + s.failed + s.lost + s.never = s.issued
