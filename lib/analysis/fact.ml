open Relalg
open Authz

type level = Plain | Enc

type t = { subject : Subject.t; attr : Attr.t; level : level }

let compare_level a b =
  match (a, b) with
  | Plain, Plain | Enc, Enc -> 0
  | Plain, Enc -> -1
  | Enc, Plain -> 1

let compare a b =
  match Subject.compare a.subject b.subject with
  | 0 -> (
      match Attr.compare a.attr b.attr with
      | 0 -> compare_level a.level b.level
      | c -> c)
  | c -> c

let equal a b = compare a b = 0

let level_name = function Plain -> "plain" | Enc -> "enc"

let to_string f =
  Printf.sprintf "(%s, %s, %s)" (Subject.name f.subject) (Attr.name f.attr)
    (level_name f.level)

let pp fmt f = Format.pp_print_string fmt (to_string f)

module Set = struct
  include Stdlib.Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

  let to_string s =
    String.concat " " (List.map to_string (elements s))
end

let of_levels subject ~plain ~enc =
  let add level attrs acc =
    Attr.Set.fold (fun attr acc -> { subject; attr; level } :: acc) attrs acc
  in
  Set.of_list (add Plain plain (add Enc enc []))

let of_view subject (view : Authorization.view) =
  of_levels subject ~plain:view.Authorization.plain ~enc:view.Authorization.enc

let profile_reads (p : Profile.t) =
  let anything =
    List.fold_left Attr.Set.union
      (Attr.Set.union p.Profile.ve p.Profile.ie)
      (Partition.sets p.Profile.eq)
  in
  (Attr.Set.union (Attr.Set.union p.Profile.vp p.Profile.ip) anything, anything)
