(* Output checks: a result that fails one of these marks the run incorrect
   (or, for a single operation, counts that operation as answered wrongly). *)

module Id = Hashid.Id

(* The owner of [key] among [ids] (sorted ascending): the first id at or
   after the key, wrapping to the smallest — the node whose
   (predecessor, self] arc holds the key. *)
let successor_of ~sorted_ids key =
  let n = Array.length sorted_ids in
  if n = 0 then invalid_arg "Checks.successor_of: no members";
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Id.compare sorted_ids.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  sorted_ids.(if !lo = n then 0 else !lo)

let owner_ok ~sorted_ids ~key ~owner = Id.equal (successor_of ~sorted_ids key) owner

(* A value read back must be byte-identical to the catalogue's. *)
let value_ok ~expected ~got = String.equal expected got

(* Two routes of the same request agree on owner and hop count. *)
let same_route ~owner_a ~hops_a ~owner_b ~hops_b = owner_a = owner_b && hops_a = hops_b
