open Relalg

type t = {
  schemas : Schema.t list;
  subjects : Subject.t list;
  policy : Authorization.t;
}

exception Syntax_error of int * string

let fail line fmt =
  Format.kasprintf (fun s -> raise (Syntax_error (line, s))) fmt

let column_type line = function
  | "int" -> Schema.Tint
  | "float" -> Schema.Tfloat
  | "string" -> Schema.Tstring
  | "date" -> Schema.Tdate
  | "bool" -> Schema.Tbool
  | ty -> fail line "unknown column type %s" ty

(* The model's own validation ([Schema.make], [Authorization.rule])
   reports on the line that triggered it. *)
let on_line lineno f =
  try f () with Invalid_argument msg -> fail lineno "%s" msg

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let split_commas s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun w -> w <> "")

(* "relation NAME owner O (col ty, col ty, ...)" *)
let parse_relation lineno rest =
  match String.index_opt rest '(' with
  | None -> fail lineno "relation declaration needs a column list"
  | Some i ->
      let head = split_words (String.sub rest 0 i) in
      let tail = String.sub rest i (String.length rest - i) in
      let name, owner, storage =
        match head with
        | [ name; "owner"; owner ] -> (name, owner, Schema.At_authority)
        | [ name; "owner"; owner; "hosted"; host ] ->
            (name, owner, Schema.outsourced ~host ~encrypted:[])
        | [ name; "owner"; owner; "hosted"; host; "enc"; cols ] ->
            (name, owner,
             Schema.outsourced ~host ~encrypted:(split_commas cols))
        | _ ->
            fail lineno
              "expected: relation NAME owner O [hosted S [enc a,b]] (...)"
      in
      if tail.[String.length tail - 1] <> ')' then
        fail lineno "unterminated column list";
      let body = String.sub tail 1 (String.length tail - 2) in
      let columns =
        List.map
          (fun col ->
            match split_words col with
            | [ cname; ty ] -> (cname, column_type lineno ty)
            | _ -> fail lineno "expected 'column type' in %s" col)
          (split_commas body)
      in
      on_line lineno (fun () -> Schema.make ~name ~owner ~storage columns)

(* "authorize REL to SUBJ [plain a,b] [enc c,d]" *)
let parse_authorize lineno rest schemas subjects =
  let words = split_words rest in
  let rel, grantee, attrs_rest =
    match words with
    | rel :: "to" :: grantee :: rest -> (rel, grantee, rest)
    | _ -> fail lineno "expected: authorize REL to SUBJECT ..."
  in
  let schema =
    match List.find_opt (fun s -> s.Schema.name = rel) schemas with
    | Some s -> s
    | None -> fail lineno "unknown relation %s" rel
  in
  let rec sections plain enc = function
    | [] -> (plain, enc)
    | "plain" :: v :: rest -> sections (split_commas v) enc rest
    | "enc" :: v :: rest -> sections plain (split_commas v) rest
    | w :: _ -> fail lineno "unexpected token %s" w
  in
  let plain, enc = sections [] [] attrs_rest in
  (match
     (* by string: a name the schema lacks is refused, never interned *)
     List.filter
       (fun a ->
         not (List.exists (fun b -> Attr.name b = a) (Schema.attr_list schema)))
       (plain @ enc)
   with
  | [] -> ()
  | foreign -> fail lineno "%s has no column %s" rel (String.concat "," foreign));
  let grantee =
    if grantee = "any" then Authorization.Any
    else
      match List.filter (fun s -> Subject.name s = grantee) subjects with
      | [ s ] -> Authorization.To s
      | [] -> fail lineno "unknown subject %s (declare it first)" grantee
      | _ :: _ :: _ ->
          (* an authority and a provider may share a name; a rule must
             not silently pick one of them *)
          fail lineno "ambiguous subject %s: declared in more than one role"
            grantee
  in
  on_line lineno (fun () -> Authorization.rule ~rel ~plain ~enc grantee)

(* [line] past its leading keyword [kw] *)
let after kw line =
  let n = String.length kw in
  String.trim (String.sub line n (String.length line - n))

let parse input =
  let lines = String.split_on_char '\n' input in
  let schemas = ref [] and subjects = ref [] and rules = ref [] in
  let add_subject s =
    if not (List.exists (Subject.equal s) !subjects) then
      subjects := s :: !subjects
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let line = String.trim line in
      if line <> "" then
        match split_words line with
        | ("relation" as kw) :: _ ->
            let s = parse_relation lineno (after kw line) in
            if List.exists (fun s' -> s'.Schema.name = s.Schema.name) !schemas
            then fail lineno "relation %s declared twice" s.Schema.name;
            schemas := s :: !schemas;
            add_subject (Subject.authority s.Schema.owner);
            (match s.Schema.storage with
            | Schema.At_authority -> ()
            | Schema.Outsourced { host; _ } ->
                add_subject (Subject.provider host))
        | [ "user"; name ] -> add_subject (Subject.user name)
        | [ "authority"; name ] -> add_subject (Subject.authority name)
        | [ "provider"; name ] -> add_subject (Subject.provider name)
        | ("authorize" as kw) :: _ -> rules := (lineno, after kw line) :: !rules
        | w :: _ -> fail lineno "unknown directive %s" w
        | [] -> ())
    lines;
  let subjects = List.rev !subjects and schemas = List.rev !schemas in
  let rules =
    List.fold_left
      (fun seen (lineno, rest) ->
        let r = parse_authorize lineno rest schemas subjects in
        if
          List.exists
            (fun (r' : Authorization.rule) ->
              r'.relation = r.relation && r'.grantee = r.grantee)
            seen
        then fail lineno "second rule for %s to the same grantee" r.relation;
        r :: seen)
      [] (List.rev !rules)
  in
  { schemas; subjects; policy = Authorization.make ~schemas (List.rev rules) }

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s

let example =
  {|# The paper's running example (Fig. 1(b))
relation Hosp owner H (S string, B date, D string, T string)
relation Ins owner I (C string, P int)
user U
provider X
provider Y
provider Z
authorize Hosp to H plain S,B,D,T
authorize Ins to H plain C enc P
authorize Hosp to I plain B enc S,D,T
authorize Ins to I plain C,P
authorize Hosp to U plain S,D,T
authorize Ins to U plain C,P
authorize Hosp to X plain D,T enc S
authorize Ins to X enc C,P
authorize Hosp to Y plain B,D,T enc S
authorize Ins to Y plain P enc C
authorize Hosp to Z plain S,T enc D
authorize Ins to Z plain C enc P
authorize Hosp to any plain D,T
authorize Ins to any enc P
|}
