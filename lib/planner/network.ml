type t = { backbone_bps : float; client_bps : float }

(* the paper's testbed backbone: 10 Gbps *)
let backbone_bps = 10.0e9

let make ?(client_mbps = 100.0) () =
  { backbone_bps; client_bps = client_mbps *. 1e6 }

let is_user (s : Authz.Subject.t) = s.Authz.Subject.role = Authz.Subject.User

let bandwidth_bps t a b =
  if is_user a || is_user b then t.client_bps else t.backbone_bps

let transfer_seconds t a b bytes =
  if Authz.Subject.equal a b then 0.0
  else 8.0 *. bytes /. bandwidth_bps t a b

let fingerprint t =
  let buf = Buffer.create 32 in
  Fingerprint.float_field buf t.backbone_bps;
  Fingerprint.float_field buf t.client_bps;
  Buffer.contents buf
