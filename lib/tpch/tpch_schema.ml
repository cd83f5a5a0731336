open Relalg

let authority1 = "A1"
let authority2 = "A2"

let region =
  Schema.make ~name:"region" ~owner:authority1
    [ ("r_regionkey", Schema.Tint); ("r_name", Schema.Tstring);
      ("r_comment", Schema.Tstring) ]

let nation =
  Schema.make ~name:"nation" ~owner:authority1
    [ ("n_nationkey", Schema.Tint); ("n_name", Schema.Tstring);
      ("n_regionkey", Schema.Tint); ("n_comment", Schema.Tstring) ]

let supplier =
  Schema.make ~name:"supplier" ~owner:authority2
    [ ("s_suppkey", Schema.Tint); ("s_name", Schema.Tstring);
      ("s_address", Schema.Tstring); ("s_nationkey", Schema.Tint);
      ("s_phone", Schema.Tstring); ("s_acctbal", Schema.Tfloat);
      ("s_comment", Schema.Tstring) ]

let part =
  Schema.make ~name:"part" ~owner:authority2
    [ ("p_partkey", Schema.Tint); ("p_name", Schema.Tstring);
      ("p_mfgr", Schema.Tstring); ("p_brand", Schema.Tstring);
      ("p_type", Schema.Tstring); ("p_size", Schema.Tint);
      ("p_container", Schema.Tstring); ("p_retailprice", Schema.Tfloat);
      ("p_comment", Schema.Tstring) ]

let partsupp =
  Schema.make ~name:"partsupp" ~owner:authority2
    [ ("ps_partkey", Schema.Tint); ("ps_suppkey", Schema.Tint);
      ("ps_availqty", Schema.Tint); ("ps_supplycost", Schema.Tfloat);
      ("ps_comment", Schema.Tstring) ]

let customer =
  Schema.make ~name:"customer" ~owner:authority1
    [ ("c_custkey", Schema.Tint); ("c_name", Schema.Tstring);
      ("c_address", Schema.Tstring); ("c_nationkey", Schema.Tint);
      ("c_phone", Schema.Tstring); ("c_acctbal", Schema.Tfloat);
      ("c_mktsegment", Schema.Tstring); ("c_comment", Schema.Tstring) ]

let orders =
  Schema.make ~name:"orders" ~owner:authority1
    [ ("o_orderkey", Schema.Tint); ("o_custkey", Schema.Tint);
      ("o_orderstatus", Schema.Tstring); ("o_totalprice", Schema.Tfloat);
      ("o_orderdate", Schema.Tdate); ("o_orderpriority", Schema.Tstring);
      ("o_clerk", Schema.Tstring); ("o_shippriority", Schema.Tint);
      ("o_comment", Schema.Tstring) ]

let lineitem =
  Schema.make ~name:"lineitem" ~owner:authority2
    [ ("l_orderkey", Schema.Tint); ("l_partkey", Schema.Tint);
      ("l_suppkey", Schema.Tint); ("l_linenumber", Schema.Tint);
      ("l_quantity", Schema.Tfloat); ("l_extendedprice", Schema.Tfloat);
      ("l_discount", Schema.Tfloat); ("l_tax", Schema.Tfloat);
      ("l_returnflag", Schema.Tstring); ("l_linestatus", Schema.Tstring);
      ("l_shipdate", Schema.Tdate); ("l_commitdate", Schema.Tdate);
      ("l_receiptdate", Schema.Tdate); ("l_shipinstruct", Schema.Tstring);
      ("l_shipmode", Schema.Tstring); ("l_comment", Schema.Tstring) ]

let all =
  [ region; nation; supplier; part; partsupp; customer; orders; lineitem ]

(* Average column widths in bytes (TPC-H spec averages; comments use the
   average of their variable range). *)
let widths =
  [ ("region", [ ("r_regionkey", 4.); ("r_name", 7.); ("r_comment", 66.) ]);
    ( "nation",
      [ ("n_nationkey", 4.); ("n_name", 8.); ("n_regionkey", 4.);
        ("n_comment", 86.) ] );
    ( "supplier",
      [ ("s_suppkey", 4.); ("s_name", 18.); ("s_address", 25.);
        ("s_nationkey", 4.); ("s_phone", 15.); ("s_acctbal", 8.);
        ("s_comment", 63.) ] );
    ( "part",
      [ ("p_partkey", 4.); ("p_name", 33.); ("p_mfgr", 25.);
        ("p_brand", 10.); ("p_type", 21.); ("p_size", 4.);
        ("p_container", 8.); ("p_retailprice", 8.); ("p_comment", 14.) ] );
    ( "partsupp",
      [ ("ps_partkey", 4.); ("ps_suppkey", 4.); ("ps_availqty", 4.);
        ("ps_supplycost", 8.); ("ps_comment", 124.) ] );
    ( "customer",
      [ ("c_custkey", 4.); ("c_name", 18.); ("c_address", 25.);
        ("c_nationkey", 4.); ("c_phone", 15.); ("c_acctbal", 8.);
        ("c_mktsegment", 10.); ("c_comment", 73.) ] );
    ( "orders",
      [ ("o_orderkey", 4.); ("o_custkey", 4.); ("o_orderstatus", 1.);
        ("o_totalprice", 8.); ("o_orderdate", 4.); ("o_orderpriority", 8.);
        ("o_clerk", 15.); ("o_shippriority", 4.); ("o_comment", 49.) ] );
    ( "lineitem",
      [ ("l_orderkey", 4.); ("l_partkey", 4.); ("l_suppkey", 4.);
        ("l_linenumber", 4.); ("l_quantity", 8.); ("l_extendedprice", 8.);
        ("l_discount", 8.); ("l_tax", 8.); ("l_returnflag", 1.);
        ("l_linestatus", 1.); ("l_shipdate", 4.); ("l_commitdate", 4.);
        ("l_receiptdate", 4.); ("l_shipinstruct", 12.); ("l_shipmode", 5.);
        ("l_comment", 27.) ] ) ]

let width_of table column =
  match List.assoc_opt table widths with
  | None -> 8.0
  | Some cols -> (
      match List.assoc_opt column cols with Some w -> w | None -> 8.0)

let base_cardinality ~sf = function
  | "region" -> 5.0
  | "nation" -> 25.0
  | "supplier" -> Float.max 1.0 (10_000.0 *. sf)
  | "part" -> Float.max 1.0 (200_000.0 *. sf)
  | "partsupp" -> Float.max 1.0 (800_000.0 *. sf)
  | "customer" -> Float.max 1.0 (150_000.0 *. sf)
  | "orders" -> Float.max 1.0 (1_500_000.0 *. sf)
  | "lineitem" -> Float.max 1.0 (6_000_000.0 *. sf)
  | t -> invalid_arg ("Tpch_schema.base_cardinality: " ^ t)

(* Built once per [~sf]: a planner consults its base statistics at
   every base relation of every candidate it estimates. *)
let base_stats ~sf =
  let table =
    List.map
      (fun (name, cols) ->
        (name, Planner.Estimate.of_widths ~card:(base_cardinality ~sf name) cols))
      widths
  in
  fun name -> List.assoc_opt name table
