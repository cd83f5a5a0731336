(** Maps keyed by plan-node ids. *)
include Map.Make (Int)

(** Hash tables keyed by plan-node ids: ids are distinct small integers,
    so each is its own hash. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)
