type role = User | Authority | Provider
type t = { role : role; name : string }

let user name = { role = User; name }
let authority name = { role = Authority; name }
let provider name = { role = Provider; name }

let name t = t.name

let role_rank = function User -> 0 | Authority -> 1 | Provider -> 2

let compare a b =
  match Stdlib.compare (role_rank a.role) (role_rank b.role) with
  | 0 -> String.compare a.name b.name
  | c -> c

let equal a b = a == b || (a.role = b.role && String.equal a.name b.name)
let pp fmt t = Format.pp_print_string fmt t.name

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Stdlib.Set.Make (Ord)
module Map = Stdlib.Map.Make (Ord)

let pp_set fmt s =
  Format.pp_print_string fmt
    (String.concat "" (List.map name (Set.elements s)))
