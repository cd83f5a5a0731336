type func =
  | Count_star
  | Count of Attr.t
  | Sum of Attr.t
  | Avg of Attr.t
  | Min of Attr.t
  | Max of Attr.t

type t = { func : func; output : Attr.t }

let operand_of_func = function
  | Count_star -> None
  | Count a | Sum a | Avg a | Min a | Max a -> Some a

let count = Attr.make "count"

let make func =
  let output =
    match operand_of_func func with
    | Some a -> a
    | None -> count
  in
  { func; output }

let make_named func name = { func; output = Attr.make name }
let operand t = operand_of_func t.func
let needs_plaintext _ = false

let func_name = function
  | Count_star -> "count(*)"
  | Count a -> Printf.sprintf "count(%s)" (Attr.name a)
  | Sum a -> Printf.sprintf "sum(%s)" (Attr.name a)
  | Avg a -> Printf.sprintf "avg(%s)" (Attr.name a)
  | Min a -> Printf.sprintf "min(%s)" (Attr.name a)
  | Max a -> Printf.sprintf "max(%s)" (Attr.name a)

let pp fmt t =
  if
    match operand_of_func t.func with
    | Some a -> Attr.equal a t.output
    | None -> Attr.equal t.output count
  then Format.pp_print_string fmt (func_name t.func)
  else Format.fprintf fmt "%s as %s" (func_name t.func) (Attr.name t.output)
