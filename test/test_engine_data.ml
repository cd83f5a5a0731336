(* Shared concrete data for the running example (used by the engine and
   distributed-simulation tests). *)

open Relalg
open Engine

let v_str s = Value.Str s
let v_int i = Value.Int i

let hosp_rows =
  [ [| v_str "alice"; Value.date_of_string "1980-01-01"; v_str "stroke"; v_str "tpa" |];
    [| v_str "bob"; Value.date_of_string "1975-05-12"; v_str "stroke"; v_str "surgery" |];
    [| v_str "carol"; Value.date_of_string "1990-09-30"; v_str "flu"; v_str "rest" |];
    [| v_str "dave"; Value.date_of_string "1968-03-22"; v_str "stroke"; v_str "tpa" |];
    [| v_str "erin"; Value.date_of_string "1985-07-04"; v_str "asthma"; v_str "inhaler" |] ]

let ins_rows =
  [ [| v_str "alice"; v_int 120 |];
    [| v_str "bob"; v_int 300 |];
    [| v_str "carol"; v_int 80 |];
    [| v_str "dave"; v_int 150 |];
    [| v_str "frank"; v_int 90 |] ]

let tables () =
  [ ("Hosp", Table.of_schema Paper_example.hosp hosp_rows);
    ("Ins", Table.of_schema Paper_example.ins ins_rows) ]

(* stroke patients: alice(tpa,120), bob(surgery,300), dave(tpa,150)
   -> tpa avg=135, surgery avg=300; having >100 keeps both *)
let expected () =
  Table.create
    [ Attr.make "P"; Attr.make "T" ]
    [ [| Value.Float 135.0; v_str "tpa" |];
      [| Value.Float 300.0; v_str "surgery" |] ]

(* What the runtime release check says of [t] against [profile]: [t] is
   the root of a one-node extension, so only the consistency audit
   runs. [None] when the columns match the profile. *)
let mismatch profile t =
  let schema =
    Schema.make ~name:"R" ~owner:"H"
      (List.map (fun a -> (Attr.name a, Schema.Tint)) (Table.attrs t))
  in
  let node = Plan.base schema in
  let profiles = Hashtbl.create 1 in
  Hashtbl.replace profiles (Plan.id node) profile;
  let ext =
    { Authz.Extend.plan = node;
      assignment =
        Authz.Imap.singleton (Plan.id node) (Authz.Subject.authority "H");
      profiles }
  in
  match Distsim.Runtime.check_node ~policy:Paper_example.policy ext node t with
  | _ -> None
  | exception Distsim.Runtime.Distributed_violation m ->
      let prefix =
        Printf.sprintf "node %d does not match its profile: " (Plan.id node)
      in
      Some
        (if String.starts_with ~prefix m then
           String.sub m (String.length prefix)
             (String.length m - String.length prefix)
         else m)
