type rates = {
  cpu_per_min : float;
  io_per_gb : float;
  net_out_per_gb : float;
}

type t = {
  provider_multipliers : (string * float) list;
  authority_factor : float;
  user_factor : float;
}

let base_provider_rates =
  { cpu_per_min = 0.01; io_per_gb = 0.001; net_out_per_gb = 0.02 }

let make ?(provider_multipliers = []) ?(authority_factor = 3.0)
    ?(user_factor = 10.0) () =
  { provider_multipliers; authority_factor; user_factor }

let scale f r =
  { cpu_per_min = r.cpu_per_min *. f;
    io_per_gb = r.io_per_gb *. f;
    net_out_per_gb = r.net_out_per_gb *. f }

let rates_for t (s : Authz.Subject.t) =
  match s.Authz.Subject.role with
  | Authz.Subject.Provider ->
      let f =
        match List.assoc_opt s.Authz.Subject.name t.provider_multipliers with
        | Some f -> f
        | None -> 1.0
      in
      scale f base_provider_rates
  | Authz.Subject.Authority ->
      { (scale 1.0 base_provider_rates) with
        cpu_per_min = base_provider_rates.cpu_per_min *. t.authority_factor }
  | Authz.Subject.User ->
      { (scale 1.0 base_provider_rates) with
        cpu_per_min = base_provider_rates.cpu_per_min *. t.user_factor }

let fingerprint t =
  let buf = Buffer.create 64 in
  Fingerprint.float_field buf t.authority_factor;
  Fingerprint.float_field buf t.user_factor;
  Fingerprint.list_field buf
    (fun (name, f) ->
      let b = Buffer.create 16 in
      Fingerprint.field b name;
      Fingerprint.float_field b f;
      Buffer.contents b)
    (List.sort compare t.provider_multipliers);
  Buffer.contents buf
