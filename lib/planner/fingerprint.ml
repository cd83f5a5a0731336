open Relalg

let field buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let int_field buf i = field buf (string_of_int i)

(* bit-exact: Printf "%f"-style roundings would merge distinct floats *)
let float_field buf f = field buf (Printf.sprintf "%Lx" (Int64.bits_of_float f))

let list_field buf elt xs =
  int_field buf (List.length xs);
  List.iter (fun x -> field buf (elt x)) xs

let in_buf build =
  let buf = Buffer.create 64 in
  build buf;
  Buffer.contents buf

let of_attr = Attr.name

let attr_set buf s = list_field buf of_attr (Attr.Set.elements s)

let of_value v =
  in_buf @@ fun buf ->
  match (v : Value.t) with
  | Null -> field buf "null"
  | Bool b ->
      field buf "bool";
      field buf (string_of_bool b)
  | Int i ->
      field buf "int";
      int_field buf i
  | Float f ->
      field buf "float";
      float_field buf f
  | Str s ->
      field buf "str";
      field buf s
  | Date d ->
      field buf "date";
      int_field buf d
  | Enc c ->
      field buf "enc";
      field buf c.Value.scheme;
      field buf c.Value.key_id;
      field buf c.Value.payload

let of_op (op : Predicate.op) =
  match op with
  | Eq -> "eq"
  | Neq -> "neq"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let of_atom (a : Predicate.atom) =
  in_buf @@ fun buf ->
  match a with
  | Cmp_const (x, op, v) ->
      field buf "cmp_const";
      field buf (of_attr x);
      field buf (of_op op);
      field buf (of_value v)
  | Cmp_attr (x, op, y) ->
      field buf "cmp_attr";
      field buf (of_attr x);
      field buf (of_op op);
      field buf (of_attr y)
  | In_list (x, vs) ->
      field buf "in";
      field buf (of_attr x);
      list_field buf of_value vs
  | Like (x, pat) ->
      field buf "like";
      field buf (of_attr x);
      field buf pat

let of_predicate (p : Predicate.t) =
  in_buf @@ fun buf ->
  list_field buf (fun clause -> in_buf (fun b -> list_field b of_atom clause)) p

let of_aggregate (a : Aggregate.t) =
  in_buf @@ fun buf ->
  (match a.Aggregate.func with
  | Count_star -> field buf "count*"
  | Count x ->
      field buf "count";
      field buf (of_attr x)
  | Sum x ->
      field buf "sum";
      field buf (of_attr x)
  | Avg x ->
      field buf "avg";
      field buf (of_attr x)
  | Min x ->
      field buf "min";
      field buf (of_attr x)
  | Max x ->
      field buf "max";
      field buf (of_attr x));
  field buf (of_attr a.Aggregate.output)

(* One node level, children delegated to [child]: the hash-consed DAG
   store (Dag) computes subtree fingerprints bottom-up with memoized
   children, and the encoding must stay byte-identical to [of_plan] so
   DAG-level keys line up with the plan cache's structural keys. *)
let of_plan_via child plan =
  in_buf @@ fun buf ->
  (match Plan.node plan with
  | Plan.Base s ->
      field buf "base";
      field buf s.Schema.name
  | Plan.Project (attrs, _) ->
      field buf "project";
      attr_set buf attrs
  | Plan.Select (pred, _) ->
      field buf "select";
      field buf (of_predicate pred)
  | Plan.Product _ -> field buf "product"
  | Plan.Join (pred, _, _) ->
      field buf "join";
      field buf (of_predicate pred)
  | Plan.Group_by (keys, aggs, _) ->
      field buf "group_by";
      attr_set buf keys;
      list_field buf of_aggregate aggs
  | Plan.Udf (name, inputs, output, _) ->
      field buf "udf";
      field buf name;
      attr_set buf inputs;
      field buf (of_attr output)
  | Plan.Order_by (keys, _) ->
      field buf "order_by";
      list_field buf
        (fun (a, dir) ->
          in_buf (fun b ->
              field b (of_attr a);
              field b (match dir with Plan.Asc -> "asc" | Plan.Desc -> "desc")))
        keys
  | Plan.Limit (n, _) ->
      field buf "limit";
      int_field buf n
  | Plan.Encrypt (attrs, _) ->
      field buf "encrypt";
      attr_set buf attrs
  | Plan.Decrypt (attrs, _) ->
      field buf "decrypt";
      attr_set buf attrs);
  list_field buf child (Plan.children plan)

let rec of_plan plan = of_plan_via of_plan plan

let of_subject (s : Authz.Subject.t) =
  in_buf @@ fun buf ->
  field buf
    (match s.Authz.Subject.role with
    | Authz.Subject.User -> "user"
    | Authz.Subject.Authority -> "authority"
    | Authz.Subject.Provider -> "provider");
  field buf s.Authz.Subject.name

let of_schema (s : Schema.t) =
  in_buf @@ fun buf ->
  field buf s.Schema.name;
  field buf s.Schema.owner;
  (match s.Schema.storage with
  | Schema.At_authority -> field buf "at_authority"
  | Schema.Outsourced { host; encrypted } ->
      field buf "outsourced";
      field buf host;
      attr_set buf encrypted);
  list_field buf
    (fun (a, ty) ->
      in_buf (fun b ->
          field b (of_attr a);
          field b (Schema.type_name ty)))
    s.Schema.columns

let of_rule (r : Authz.Authorization.rule) =
  in_buf @@ fun buf ->
  field buf r.Authz.Authorization.relation;
  (match r.Authz.Authorization.grantee with
  | Authz.Authorization.Any -> field buf "any"
  | Authz.Authorization.To s ->
      field buf "to";
      field buf (of_subject s));
  attr_set buf r.Authz.Authorization.plain;
  attr_set buf r.Authz.Authorization.enc

(* rule and schema order carry no meaning: sort the serialized forms so
   textually-reordered but equivalent policies fingerprint identically *)
let of_policy policy =
  in_buf @@ fun buf ->
  let schemas =
    List.sort compare (List.map of_schema (Authz.Authorization.schemas policy))
  in
  let rules =
    List.sort compare (List.map of_rule (Authz.Authorization.rules policy))
  in
  list_field buf Fun.id schemas;
  list_field buf Fun.id rules

let of_config (c : Authz.Opreq.config) =
  in_buf @@ fun buf ->
  field buf (string_of_bool c.Authz.Opreq.equality_over_cipher);
  field buf (string_of_bool c.Authz.Opreq.order_over_cipher);
  field buf (string_of_bool c.Authz.Opreq.addition_over_cipher);
  list_field buf Fun.id
    (List.sort_uniq compare c.Authz.Opreq.enc_capable_udfs);
  (* Imap iterates in ascending node-id order: deterministic *)
  let forced = ref [] in
  Authz.Imap.iter
    (fun id attrs -> forced := (id, attrs) :: !forced)
    c.Authz.Opreq.forced_plaintext;
  list_field buf
    (fun (id, attrs) ->
      in_buf (fun b ->
          int_field b id;
          attr_set b attrs))
    (List.rev !forced)
