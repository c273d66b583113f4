module S = Serialized
module D = Diagnostic

(* Operator-fusion discovery.

   A chain is a maximal run of kernels a -> b -> ... -> z in which every
   interior hop is an exclusive point-to-point net (one writer, one
   reader, not a global input/output, not an RTP side channel) that is
   the writer's only output and the reader's only input.  That is
   exactly the shape {!Runtime}'s pump protocol can collapse into
   one fiber: heads keep their (possibly many) real inputs, tails their
   real outputs, and each interior queue becomes a direct hand-off edge.

   Fusion is proposed only for lint-clean graphs: structural validation
   plus the SDF balance solve ({!Rates}) and the deadlock pass must
   produce no error — an unbalanced or deadlocking graph keeps its
   per-kernel fibers so the existing diagnostics describe what the user
   actually ran.  The balance solve also carries the rate-matched
   guarantee: where rates are declared (or implied by window
   transports), a clean solve means producer and consumer agree per
   steady-state firing, so the hand-off edge stays bounded by the
   window sizes in play. *)

let clean (g : S.t) =
  S.validate_diags g = []
  && D.max_severity (Rates.analyze g) <> Some D.Error
  && D.max_severity (Deadlock.analyze g) <> Some D.Error

(* Net ids bound to ports of the given direction on kernel [k]. *)
let dir_nets (g : S.t) dir k =
  let inst = g.S.kernels.(k) in
  let acc = ref [] in
  Array.iteri
    (fun pi (spec : Kernel.port_spec) ->
      if spec.Kernel.dir = dir then acc := inst.S.port_nets.(pi) :: !acc)
    inst.S.ports;
  !acc

let chains (g : S.t) =
  if not (clean g) then []
  else begin
    let nk = Array.length g.S.kernels in
    let succ = Array.make nk (-1) in
    let pred = Array.make nk (-1) in
    Array.iteri
      (fun id (n : S.net) ->
        let fusible_transport =
          match Settings.resolved_transport n.S.settings with
          | Settings.Rtp -> false
          | Settings.Stream | Settings.Window _ | Settings.Gmio -> true
        in
        if n.S.global_input = None && n.S.global_output = None && fusible_transport then
          match n.S.writers, n.S.readers with
          | [ w ], [ r ] ->
            let a = w.S.kernel_idx and b = r.S.kernel_idx in
            if a <> b
               && dir_nets g Kernel.Out a = [ id ]
               && dir_nets g Kernel.In b = [ id ]
            then begin
              succ.(a) <- b;
              pred.(b) <- a
            end
          | _ -> ())
      g.S.nets;
    (* Walk maximal runs from heads (link out, no link in).  Pure cycles
       have no head and are left unfused — a fused cycle would pull its
       own pump. *)
    let result = ref [] in
    for k = 0 to nk - 1 do
      if succ.(k) >= 0 && pred.(k) < 0 then begin
        let acc = ref [ k ] in
        let cur = ref k in
        while succ.(!cur) >= 0 do
          cur := succ.(!cur);
          acc := !cur :: !acc
        done;
        result := List.rev !acc :: !result
      end
    done;
    List.rev !result
  end

(* Interior hand-off nets: the sole output of every non-tail member. *)
let interior (g : S.t) chain =
  match List.rev chain with
  | [] | [ _ ] -> []
  | _ :: rev_heads -> List.rev_map (fun k -> List.hd (dir_nets g Kernel.Out k)) rev_heads

let analyze (g : S.t) =
  List.map
    (fun chain ->
      let names = List.map (fun k -> g.S.kernels.(k).S.inst_name) chain in
      (* Carrying the interior nets lets [lint.suppress] on them mute the
         finding for chains the user deliberately keeps unfused. *)
      let interior = interior g chain in
      D.make ~severity:D.Info ~code:"CG-I103" ~graph:g.S.gname ~kernels:names
        ~nets:(List.map (S.net_display g) interior)
        ~net_ids:interior
        (Printf.sprintf
           "fusible chain: %s — %d queue hop%s collapse into direct hand-off when \
            Run_config.fuse is on"
           (String.concat " -> " names)
           (List.length chain - 1)
           (if List.length chain = 2 then "" else "s")))
    (chains g)
