(* Attributes are interned records and attribute sets are bitsets over
   their ids; these tests hold both to the string-keyed model they
   replace.

   1. model — random operation sequences run on [Attr.Set] and on a
      [Set.Make (String)] model, with names interned in random, unsorted
      order: every result, the sign of [compare], and the name order of
      [elements], [fold], [iter], [min_elt] and [to_string] agree. The
      first property runs while few names are interned (one-word sets);
      the second after enough to need several words, where a small set
      is sparse against the table.
   2. domains — 4 [Par] domains intern overlapping fresh names at once:
      each name gets exactly one id and one record, and sets built on
      different domains are equal. *)

open Relalg
module M = Set.Make (String)

(* --- the model ---------------------------------------------------------- *)

type op =
  | Add of int * int  (** register, name *)
  | Remove of int * int
  | Union of int * int * int  (** target, operands *)
  | Inter of int * int * int
  | Diff of int * int * int
  | Filter of int * int  (** keeps the names whose length mod 3 differs *)
  | Of_list of int * int list

let registers = 4

let show_op = function
  | Add (r, n) -> Printf.sprintf "add %d r%d" n r
  | Remove (r, n) -> Printf.sprintf "remove %d r%d" n r
  | Union (t, a, b) -> Printf.sprintf "r%d = r%d | r%d" t a b
  | Inter (t, a, b) -> Printf.sprintf "r%d = r%d & r%d" t a b
  | Diff (t, a, b) -> Printf.sprintf "r%d = r%d - r%d" t a b
  | Filter (r, k) -> Printf.sprintf "filter %d r%d" k r
  | Of_list (r, ns) ->
      Printf.sprintf "r%d = {%s}" r (String.concat "," (List.map string_of_int ns))

(* names from a pool of 40 one-letter names: the whole property
   interns fewer than one word's worth *)
let one_letter =
  QCheck.Gen.(map (String.make 1) (oneof [ char_range 'a' 'z'; char_range 'A' 'N' ]))

(* names over a wide space, sharing prefixes as TPC-H's do, mixed with
   the one-letter pool so that one-word and longer sets meet *)
let prefixed =
  QCheck.Gen.(
    frequency
      [ (1, one_letter);
        ( 4,
          map
            (fun (prefix, body) -> prefix ^ body)
            (pair (oneofl [ ""; "l_"; "o_"; "ps_"; "Z"; "a" ])
               (string_size ~gen:(char_range 'a' 'e') (int_range 1 5))) ) ])

(* a case: names (each interned, at its first use, in this random
   order) and a program over indices into them *)
let gen_case ~names name_gen =
  let open QCheck.Gen in
  let* fresh = list_size (int_range 1 names) name_gen in
  let fresh = List.sort_uniq String.compare fresh in
  let* fresh = shuffle_l fresh in
  let n = List.length fresh in
  let reg = int_bound (registers - 1) and nm = int_bound (n - 1) in
  let op =
    frequency
      [ (4, map2 (fun r x -> Add (r, x)) reg nm);
        (1, map2 (fun r x -> Remove (r, x)) reg nm);
        (2, map3 (fun t a b -> Union (t, a, b)) reg reg reg);
        (2, map3 (fun t a b -> Inter (t, a, b)) reg reg reg);
        (2, map3 (fun t a b -> Diff (t, a, b)) reg reg reg);
        (1, map2 (fun r k -> Filter (r, k)) reg (int_bound 2));
        (1, map2 (fun r xs -> Of_list (r, xs)) reg (list_size (int_bound 12) nm)) ]
  in
  let* ops = list_size (int_range 1 40) op in
  return (fresh, ops)

let print_case (fresh, ops) =
  Printf.sprintf "names [%s]\n%s" (String.concat "; " fresh)
    (String.concat "\n" (List.map show_op ops))

let sign x = compare x 0

(* [s] against [m]: membership, size, and every order-exposing reader *)
let agrees fresh s m =
  let names = M.elements m in
  let fold_names = List.rev (Attr.Set.fold (fun a acc -> Attr.name a :: acc) s []) in
  let iter_names =
    let l = ref [] in
    Attr.Set.iter (fun a -> l := Attr.name a :: !l) s;
    List.rev !l
  in
  List.map Attr.name (Attr.Set.elements s) = names
  && fold_names = names && iter_names = names
  && Attr.Set.cardinal s = M.cardinal m
  && Attr.Set.is_empty s = M.is_empty m
  && List.for_all (fun n -> Attr.Set.mem (Attr.make n) s = M.mem n m) fresh
  && (match names with
     | [] -> (
         match Attr.Set.min_elt s with _ -> false | exception Not_found -> true)
     | first :: _ -> Attr.name (Attr.Set.min_elt s) = first)
  && Attr.Set.to_string s = Attr.Set.to_string (Attr.Set.of_names names)
  && Attr.Set.to_string s
     = (if names <> [] && List.for_all (fun n -> String.length n = 1) names then
          String.concat "" names
        else String.concat "," names)

(* every pair of registers: the binary predicates and [compare]'s sign *)
let pairs_agree sets models =
  List.for_all
    (fun i ->
      List.for_all
        (fun j ->
          let a = sets.(i) and b = sets.(j) and ma = models.(i) and mb = models.(j) in
          Attr.Set.equal a b = M.equal ma mb
          && Attr.Set.subset a b = M.subset ma mb
          && Attr.Set.disjoint a b = M.disjoint ma mb
          && sign (Attr.Set.compare a b) = sign (M.compare ma mb)
          && (a = b) = M.equal ma mb)
        (List.init registers Fun.id))
    (List.init registers Fun.id)

let run_case (fresh, ops) =
  (* interning in the case's (random) order *)
  let attrs = Array.of_list (List.map Attr.make fresh) in
  let names = Array.of_list fresh in
  let sets = Array.make registers Attr.Set.empty in
  let models = Array.make registers M.empty in
  let keep k n = String.length n mod 3 <> k in
  List.for_all
    (fun op ->
      (match op with
      | Add (r, x) ->
          sets.(r) <- Attr.Set.add attrs.(x) sets.(r);
          models.(r) <- M.add names.(x) models.(r)
      | Remove (r, x) ->
          sets.(r) <- Attr.Set.remove attrs.(x) sets.(r);
          models.(r) <- M.remove names.(x) models.(r)
      | Union (t, a, b) ->
          sets.(t) <- Attr.Set.union sets.(a) sets.(b);
          models.(t) <- M.union models.(a) models.(b)
      | Inter (t, a, b) ->
          sets.(t) <- Attr.Set.inter sets.(a) sets.(b);
          models.(t) <- M.inter models.(a) models.(b)
      | Diff (t, a, b) ->
          sets.(t) <- Attr.Set.diff sets.(a) sets.(b);
          models.(t) <- M.diff models.(a) models.(b)
      | Filter (r, k) ->
          sets.(r) <- Attr.Set.filter (fun a -> keep k (Attr.name a)) sets.(r);
          models.(r) <- M.filter (keep k) models.(r)
      | Of_list (r, xs) ->
          sets.(r) <- Attr.Set.of_list (List.map (fun x -> attrs.(x)) xs);
          models.(r) <- M.of_list (List.map (fun x -> names.(x)) xs));
      List.for_all (fun r -> agrees fresh sets.(r) models.(r)) (List.init registers Fun.id)
      && pairs_agree sets models)
    ops

let prop_model ~name ~names name_gen =
  QCheck.Test.make ~count:200 ~name
    (QCheck.make ~print:print_case (gen_case ~names name_gen))
    run_case

(* enough fresh names that sets span several words and a small set is
   sparse against the table *)
let test_grow_table () =
  let before = Attr.interned () in
  let made = List.init 300 (fun i -> Attr.make (Printf.sprintf "grow-%03d" (299 - i))) in
  Alcotest.(check int) "300 new names" (before + 300) (Attr.interned ());
  let s = Attr.Set.of_list made in
  Alcotest.(check (list string)) "name order across words"
    (List.sort String.compare (List.map Attr.name made))
    (List.map Attr.name (Attr.Set.elements s))

(* --- domains ------------------------------------------------------------ *)

let test_domains () =
  let per = 400 and stride = 200 and domains = 4 in
  let distinct = ((domains - 1) * stride) + per in
  let name i = Printf.sprintf "dom-%04d" i in
  let before = Attr.interned () in
  let results =
    Par.with_pool domains (fun pool ->
        let pool = Option.get pool in
        Par.run_all pool
          (List.init domains (fun d () ->
               (* each domain its own order over an overlapping range *)
               let idx = List.init per (fun k -> (d * stride) + ((k * 7919) mod per)) in
               let made = List.map (fun i -> (i, Attr.make (name i))) idx in
               (made, Attr.Set.of_list (List.map snd made)))))
  in
  Alcotest.(check int) "one id per name" (before + distinct) (Attr.interned ());
  let first = Hashtbl.create distinct in
  List.iter
    (fun (made, _) ->
      List.iter
        (fun (i, a) ->
          match Hashtbl.find_opt first i with
          | None -> Hashtbl.add first i a
          | Some b ->
              if not (a == b && Attr.equal a b) then
                Alcotest.failf "%s has two records" (name i))
        made)
    results;
  let ids = Hashtbl.fold (fun _ a acc -> Attr.hash a :: acc) first [] in
  Alcotest.(check int) "distinct ids" distinct (List.length (List.sort_uniq compare ids));
  Hashtbl.iter
    (fun i a ->
      match Attr.find (name i) with
      | Some b when b == a -> ()
      | _ -> Alcotest.failf "find %s: not the interned record" (name i))
    first;
  (* the overlap of domains 1 and 2, built on each *)
  let overlap d =
    let made, _ = List.nth results d in
    Attr.Set.of_list
      (List.filter_map
         (fun (i, a) -> if i >= 2 * stride && i < per + stride then Some a else None)
         made)
  in
  Alcotest.(check bool) "sets built on different domains are equal" true
    (Attr.Set.equal (overlap 1) (overlap 2) && overlap 1 = overlap 2);
  let whole = List.fold_left (fun acc (_, s) -> Attr.Set.union acc s) Attr.Set.empty results in
  Alcotest.(check int) "union of all domains" distinct (Attr.Set.cardinal whole);
  Alcotest.(check (list string)) "name order"
    (List.init distinct name)
    (List.map Attr.name (Attr.Set.elements whole))

let () =
  Alcotest.run "attr"
    [ ( "model",
        [ QCheck_alcotest.to_alcotest
            (prop_model ~name:"one word: set = string-set model" ~names:12 one_letter);
          ("a table past one word", `Quick, test_grow_table);
          QCheck_alcotest.to_alcotest
            (prop_model ~name:"many words: set = string-set model" ~names:40 prefixed) ] );
      ("domains", [ ("4 domains intern overlapping names", `Quick, test_domains) ]) ]
