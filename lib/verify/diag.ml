open Relalg

type severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  node_id : int option;
  path : string option;
  message : string;
  suggestion : string option;
}

let make ?node_id ?path ?suggestion ~code ~severity message =
  { code; severity; node_id; path; message; suggestion }

let makef ?node_id ?path ?suggestion ~code ~severity fmt =
  Format.kasprintf (make ?node_id ?path ?suggestion ~code ~severity) fmt

let catalog =
  [ ("MPQ001", Error,
     "re-derived node profile differs from the stored one (Def. 3.1, Fig. 2)");
    ("MPQ002", Error,
     "operator precondition violated: operand not visible or compared \
      attributes not uniformly visible (Sec. 3.2)");
    ("MPQ003", Error, "extended-plan node carries no stored profile");
    ("MPQ010", Error, "extended-plan node has no executor (Def. 4.2)");
    ("MPQ011", Error,
     "executor is not authorized for an operand relation (Defs. 4.1/4.2, \
      Thm. 5.1)");
    ("MPQ012", Error,
     "executor is not authorized for the relation it produces (Defs. \
      4.1/4.2, Thm. 5.1)");
    ("MPQ020", Warning,
     "injected encryption is unnecessary: removing it leaves every node \
      authorized (Thm. 5.3 minimality)");
    ("MPQ030", Error,
     "key holder lacks plaintext authorization over the cluster's \
      attributes (Def. 6.1)");
    ("MPQ031", Error,
     "encryption/decryption executor does not hold the cluster key it \
      needs (Def. 6.1)");
    ("MPQ032", Warning,
     "key over-distributed: holder performs no encryption/decryption over \
      the cluster (Def. 6.1 least privilege)");
    ("MPQ033", Error,
     "encrypted attribute belongs to no key cluster (Def. 6.1)");
    ("MPQ040", Error,
     "operation computes on ciphertext its cluster's scheme does not \
      support (Sec. 6)");
    ("MPQ041", Error,
     "sum or average over an encrypted sum or average: an aggregated \
      Paillier ciphertext cannot be added again (Sec. 6)");
    ("MPQ050", Error,
     "dispatch request references an unknown sub-query (Fig. 8)");
    ("MPQ051", Error, "dispatch fragment call graph is cyclic (Fig. 8)");
    ("MPQ052", Error,
     "dispatch callee appears after its caller (dependency order, Fig. 8)");
    ("MPQ053", Error,
     "dispatch request subject differs from the fragment root's executor");
    ("MPQ054", Error,
     "dispatch request key set inconsistent with its fragment's \
      encryption/decryption needs (Def. 6.1)");
    ("MPQ055", Error,
     "fragments and dispatch requests do not match one-to-one (Fig. 8)") ]

let describe code =
  List.find_map
    (fun (c, _, d) -> if String.equal c code then Some d else None)
    catalog

let errors = List.filter (fun d -> d.severity = Error)
let warnings = List.filter (fun d -> d.severity = Warning)
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let compare a b =
  match String.compare a.code b.code with
  | 0 -> (
      match Option.compare Int.compare a.node_id b.node_id with
      | 0 -> String.compare a.message b.message
      | c -> c)
  | c -> c

let sort ds = List.sort compare ds

let severity_name = function Error -> "error" | Warning -> "warning"

let pp fmt d =
  Format.fprintf fmt "%s %s" d.code (severity_name d.severity);
  (match d.node_id with
  | Some id -> Format.fprintf fmt " [node %d]" id
  | None -> ());
  Format.fprintf fmt ": %s" d.message;
  (match d.path with
  | Some p -> Format.fprintf fmt "@\n    at %s" p
  | None -> ());
  match d.suggestion with
  | Some s -> Format.fprintf fmt "@\n    hint: %s" s
  | None -> ()

let render ds =
  let buf = Buffer.create 256 in
  List.iter
    (fun d -> Buffer.add_string buf (Format.asprintf "%a@." pp d))
    (sort ds);
  let e = List.length (errors ds) and w = List.length (warnings ds) in
  if e = 0 && w = 0 then Buffer.add_string buf "clean: no findings\n"
  else
    Buffer.add_string buf
      (Printf.sprintf "%d error%s, %d warning%s\n" e
         (if e = 1 then "" else "s")
         w
         (if w = 1 then "" else "s"));
  Buffer.contents buf

let to_json d =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [ ("code", Json.String d.code);
      ("severity", Json.String (severity_name d.severity));
      ("node", opt (fun i -> Json.Int i) d.node_id);
      ("path", opt (fun p -> Json.String p) d.path);
      ("message", Json.String d.message);
      ("suggestion", opt (fun s -> Json.String s) d.suggestion) ]

let report_json ds =
  let ds = sort ds in
  Json.Obj
    [ ("ok", Json.Bool (not (has_errors ds)));
      ("errors", Json.Int (List.length (errors ds)));
      ("warnings", Json.Int (List.length (warnings ds)));
      ("diagnostics", Json.List (List.map to_json ds)) ]

let path_table ?(ids = fun id -> id) plan =
  let tbl = Hashtbl.create 64 in
  let rec go prefix n =
    let seg =
      Printf.sprintf "%s#%d" (Plan.operator_name n) (ids (Plan.id n))
    in
    let path = if prefix = "" then seg else prefix ^ "/" ^ seg in
    Hashtbl.replace tbl (Plan.id n) path;
    List.iter (go path) (Plan.children n)
  in
  go "" plan;
  tbl
