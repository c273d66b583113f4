module S = Serialized
module D = Diagnostic

type pass = {
  pass_name : string;
  pass_run : S.t -> D.t list;
}

let default_passes =
  [
    { pass_name = "rates"; pass_run = Rates.analyze };
    { pass_name = "deadlock"; pass_run = Deadlock.analyze };
    { pass_name = "capacity"; pass_run = Capacity.analyze };
    { pass_name = "throughput"; pass_run = Throughput.analyze };
    { pass_name = "hazards"; pass_run = Hazards.analyze };
    { pass_name = "pool-safety"; pass_run = Pool_safety.analyze };
    { pass_name = "fusion"; pass_run = Fusion.analyze };
  ]

let suppress_key = "lint.suppress"

let suppressed_codes (g : S.t) net_id =
  if net_id < 0 || net_id >= Array.length g.S.nets then []
  else
    match Attr.find_string suppress_key g.S.nets.(net_id).S.attrs with
    | None -> []
    | Some spec ->
      String.split_on_char ',' spec |> List.map String.trim |> List.filter (( <> ) "")

let is_suppressed (g : S.t) (d : D.t) =
  d.D.net_ids <> []
  && List.for_all
       (fun id ->
         let codes = suppressed_codes g id in
         List.mem "all" codes || List.mem d.D.code codes)
       d.D.net_ids

let run ?(passes = default_passes) (g : S.t) =
  let structural = S.validate_diags g in
  if D.max_severity structural = Some D.Error then D.sort structural
  else begin
    let findings =
      structural @ List.concat_map (fun p -> p.pass_run g) passes
    in
    D.sort (List.filter (fun d -> not (is_suppressed g d)) findings)
  end
