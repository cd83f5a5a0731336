open Relalg

(* Classes are kept disjoint, each with >= 2 members, sorted canonically
   for deterministic printing/equality. Plans touch tens of attributes, so
   a list of sets beats a union-find in clarity at no real cost. *)
type t = Attr.Set.t list

let empty = []
let is_empty t = t = []

(* [t] is in canonical order (by [Attr.Set.compare]): the classes [a]
   does not meet stay in order and the merged class goes in at its
   place; a class that already holds [a] leaves [t] as it is. *)
let union_set t a =
  if Attr.Set.cardinal a < 2 then t
  else
    let intersecting, rest =
      List.partition (fun s -> not (Attr.Set.disjoint s a)) t
    in
    match intersecting with
    | [ s ] when Attr.Set.subset a s -> t
    | _ ->
        let merged = List.fold_left Attr.Set.union a intersecting in
        let rec insert = function
          | s :: more when Attr.Set.compare s merged < 0 -> s :: insert more
          | l -> merged :: l
        in
        insert rest

let union_pair t a b = union_set t (Attr.Set.of_list [ a; b ])
let merge t u = if t = [] then u else List.fold_left union_set t u
let sets t = t

let find t a =
  match List.find_opt (fun s -> Attr.Set.mem a s) t with
  | Some s -> s
  | None -> Attr.Set.singleton a

let same_class t a b = Attr.Set.mem b (find t a)
let attrs t = List.fold_left Attr.Set.union Attr.Set.empty t

let equal t u =
  List.length t = List.length u && List.for_all2 Attr.Set.equal t u

let refines t u =
  List.for_all
    (fun s ->
      List.exists (fun s' -> Attr.Set.subset s s') u
      || Attr.Set.cardinal s <= 1)
    t

let to_string t =
  String.concat " " (List.map Attr.Set.to_string t)

let pp fmt t = Format.pp_print_string fmt (to_string t)
