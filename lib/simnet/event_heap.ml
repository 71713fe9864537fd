(* Binary min-heap over (time, seq) keys. The heap order lives in three
   unboxed columns, so sifting moves only plain words and never runs the
   write barrier:

   - [time.(i)], [seq.(i)]: key of the event at heap position [i];
   - [slot.(i)] for [i < size]: where that event's thunk sits in [thunk];
   - [slot.(i)] for [size <= i < cap]: the free thunk slots.

   [slot] is always a permutation of [0 .. cap-1], so the free list costs no
   extra memory: taking the minimum frees heap position [size - 1] and the
   minimum's slot id goes there. The boxed [thunk] table is written once per
   push and cleared once per take. *)
type t = {
  mutable time : float array;
  mutable seq : int array;
  mutable slot : int array;
  mutable thunk : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
}

let nop () = ()
let initial_cap = 64

let create () =
  {
    time = Array.make initial_cap 0.0;
    seq = Array.make initial_cap 0;
    slot = Array.init initial_cap (fun i -> i);
    thunk = Array.make initial_cap nop;
    size = 0;
    next_seq = 0;
  }

(* only called when full, so every position holds a live event and the new
   upper half of [slot] is exactly the new free slots *)
let grow h =
  let cap = Array.length h.time in
  let time = Array.make (2 * cap) 0.0
  and seq = Array.make (2 * cap) 0
  and slot = Array.make (2 * cap) 0
  and thunk = Array.make (2 * cap) nop in
  Array.blit h.time 0 time 0 cap;
  Array.blit h.seq 0 seq 0 cap;
  Array.blit h.slot 0 slot 0 cap;
  for i = cap to (2 * cap) - 1 do
    slot.(i) <- i
  done;
  Array.blit h.thunk 0 thunk 0 cap;
  h.time <- time;
  h.seq <- seq;
  h.slot <- slot;
  h.thunk <- thunk

(* Sift the event at heap position [i] down: its key is held in locals,
   each level moves one child up into the hole, and the key is written back
   once where it stops. *)
let sift_down h i =
  let time = h.time and seq = h.seq and slot = h.slot and n = h.size in
  let kt = time.(i) and kq = seq.(i) and ks = slot.(i) in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && (time.(r) < time.(l) || (time.(r) = time.(l) && seq.(r) < seq.(l))) then r
        else l
      in
      if time.(c) < kt || (time.(c) = kt && seq.(c) < kq) then begin
        time.(!i) <- time.(c);
        seq.(!i) <- seq.(c);
        slot.(!i) <- slot.(c);
        i := c
      end
      else continue := false
    end
  done;
  time.(!i) <- kt;
  seq.(!i) <- kq;
  slot.(!i) <- ks

let push h ~time:kt f =
  if h.size = Array.length h.time then grow h;
  let time = h.time and seq = h.seq and slot = h.slot in
  let ks = slot.(h.size) and kq = h.next_seq in
  h.thunk.(ks) <- f;
  h.next_seq <- kq + 1;
  (* the new sequence number is the largest, so it never wins a time tie *)
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && kt < time.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    time.(!i) <- time.(p);
    seq.(!i) <- seq.(p);
    slot.(!i) <- slot.(p);
    i := p
  done;
  time.(!i) <- kt;
  seq.(!i) <- kq;
  slot.(!i) <- ks

let[@inline] min_time h = if h.size = 0 then infinity else h.time.(0)

let take h =
  if h.size = 0 then invalid_arg "Event_heap.take: empty heap";
  let ks = h.slot.(0) in
  let f = h.thunk.(ks) in
  h.thunk.(ks) <- nop;
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    h.time.(0) <- h.time.(last);
    h.seq.(0) <- h.seq.(last);
    h.slot.(0) <- h.slot.(last);
    h.slot.(last) <- ks;
    sift_down h 0
  end;
  f

let resequence_min h =
  if h.size = 0 then invalid_arg "Event_heap.resequence_min: empty heap";
  h.seq.(0) <- h.next_seq;
  h.next_seq <- h.next_seq + 1;
  sift_down h 0

let pop h =
  if h.size = 0 then None
  else
    let t = min_time h in
    Some (t, take h)

let size h = h.size
let is_empty h = h.size = 0
