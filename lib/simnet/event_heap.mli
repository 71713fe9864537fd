(** Priority queue of timestamped thunks — the simulator's event list.

    Events with equal timestamps fire in insertion order (a monotonically
    increasing sequence number breaks ties), which keeps protocol simulations
    deterministic.

    Layout: a binary min-heap on [(time, seq)] kept in three unboxed
    columns, [time : float array], [seq : int array] and [slot : int array].
    [slot.(i)] names the cell of a separate thunk table that holds the
    closure of the event at heap position [i]; positions [size .. cap-1] of
    [slot] hold the free cells, so there is no separate free list. A thunk
    is written into its cell once at {!push} and cleared once at {!take};
    sifting moves only the unboxed words, with one write per level (a hole
    moves, nothing is swapped), so it never runs the write barrier. *)

type t

val create : unit -> t
val push : t -> time:float -> (unit -> unit) -> unit

val min_time : t -> float
(** Time of the earliest event, [infinity] when empty. Reads one column
    cell; when the call is not inlined the float result is boxed. *)

val take : t -> unit -> unit
(** Remove the earliest event and return its thunk (without running it).
    Raises [Invalid_argument] when empty. Does not allocate. *)

val resequence_min : t -> unit
(** Give the earliest event the next sequence number, as if it were taken
    and pushed again at the same time: it moves behind every other event
    due at that time. Raises [Invalid_argument] when empty. *)

val pop : t -> (float * (unit -> unit)) option
(** Earliest event, or [None] when empty: {!min_time} then {!take}. *)

val size : t -> int
val is_empty : t -> bool
