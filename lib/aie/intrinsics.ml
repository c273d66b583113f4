let ceil_div a b = (a + b - 1) / b

let fp_slots lanes = max 1 (ceil_div lanes Cfg.fp32_macs_per_cycle)

let i16_slots lanes = max 1 (ceil_div lanes Cfg.int16_macs_per_cycle)

let i32_slots lanes = max 1 (ceil_div lanes Cfg.int32_macs_per_cycle)

let fp2 name f a b =
  Trace.vop ~slots:(fp_slots (Array.length a)) name;
  f a b

let fpadd a b = fp2 "fpadd" Vec.fadd a b

let fpsub a b = fp2 "fpsub" Vec.fsub a b

let fpmul a b = fp2 "fpmul" Vec.fmul a b

let fpmac acc a b =
  Trace.vop ~slots:(fp_slots (Array.length a)) "fpmac";
  Vec.fmac acc a b

let fpmac_into dst acc a b =
  Trace.vop ~slots:(fp_slots (Array.length a)) "fpmac";
  Vec.fmac_into dst acc a b

let fpmax a b = fp2 "fpmax" Vec.fmax a b

let fpmax_into dst a b =
  Trace.vop ~slots:(fp_slots (Array.length a)) "fpmax";
  Vec.fmax_into dst a b

let fpmin a b = fp2 "fpmin" Vec.fmin a b

let fpmin_into dst a b =
  Trace.vop ~slots:(fp_slots (Array.length a)) "fpmin";
  Vec.fmin_into dst a b

let fpshuffle v idx =
  Trace.vop ~slots:(fp_slots (Array.length idx)) "fpshuffle";
  Vec.fshuffle v idx

let fpshuffle_into dst v idx =
  Trace.vop ~slots:(fp_slots (Array.length idx)) "fpshuffle";
  Vec.fshuffle_into dst v idx

let fpselect mask a b =
  Trace.vop ~slots:(fp_slots (Array.length a)) "fpselect";
  Vec.fselect mask a b

let fpselect_into dst mask a b =
  Trace.vop ~slots:(fp_slots (Array.length a)) "fpselect";
  Vec.fselect_into dst mask a b

let fpsplat lanes v =
  Trace.vop ~slots:1 "fpsplat";
  Vec.fsplat lanes v

let fpsplat_into dst v =
  Trace.vop ~slots:1 "fpsplat";
  Vec.fsplat_into dst v

let fpsum v =
  (* Tree reduction: log2(lanes) shuffle+add pairs. *)
  let lanes = Array.length v in
  let steps = max 1 (int_of_float (ceil (log (float_of_int (max 2 lanes)) /. log 2.0))) in
  Trace.vop ~slots:steps "fpsum";
  Vec.fsum v

let i16_2 name f a b =
  Trace.vop ~slots:(i16_slots (Array.length a)) name;
  f a b

let mul16 a b = i16_2 "mul16" Vec.imul a b

let mac16 acc a b =
  Trace.vop ~slots:(i16_slots (Array.length a)) "mac16";
  Vec.imac acc a b

let mac16_into dst acc a b =
  Trace.vop ~slots:(i16_slots (Array.length a)) "mac16";
  Vec.imac_into dst acc a b

let add16 a b = i16_2 "add16" Vec.iadd a b

let sub16 a b = i16_2 "sub16" Vec.isub a b

let shuffle16 v idx =
  Trace.vop ~slots:(i16_slots (Array.length idx)) "shuffle16";
  Vec.ishuffle v idx

let mac32 acc a b =
  Trace.vop ~slots:(i32_slots (Array.length a)) "mac32";
  Vec.imac acc a b

let add32 a b =
  Trace.vop ~slots:(i32_slots (Array.length a)) "add32";
  Vec.iadd a b

let srs16 ~shift acc =
  Trace.vop ~slots:(i16_slots (Array.length acc)) "srs16";
  Vec.srs Cgsim.Dtype.I16 shift acc

let srs16_into dst ~shift acc =
  Trace.vop ~slots:(i16_slots (Array.length acc)) "srs16";
  Vec.srs_into dst Cgsim.Dtype.I16 shift acc

let srs32 ~shift acc =
  Trace.vop ~slots:(i32_slots (Array.length acc)) "srs32";
  Vec.srs Cgsim.Dtype.I32 shift acc

let ups16 ~shift v =
  Trace.vop ~slots:(i16_slots (Array.length v)) "ups16";
  Vec.ups shift v

let slice name mem off lanes =
  if off < 0 || off + lanes > Array.length mem then
    invalid_arg
      (Printf.sprintf "aie: %s out of range (off=%d lanes=%d len=%d)" name off lanes
         (Array.length mem))

let load_f32 mem off lanes =
  slice "load_f32" mem off lanes;
  Trace.load ~bytes:(4 * lanes);
  Array.sub mem off lanes

let load_f32_into dst mem off =
  let lanes = Array.length dst in
  slice "load_f32" mem off lanes;
  Trace.load ~bytes:(4 * lanes);
  Array.blit mem off dst 0 lanes

let store_f32 mem off v =
  let lanes = Array.length v in
  slice "store_f32" mem off lanes;
  Trace.store ~bytes:(4 * lanes);
  Array.blit v 0 mem off lanes

let load_i16 mem off lanes =
  slice "load_i16" mem off lanes;
  Trace.load ~bytes:(2 * lanes);
  Array.sub mem off lanes

let load_i16_into dst mem off =
  let lanes = Array.length dst in
  slice "load_i16" mem off lanes;
  Trace.load ~bytes:(2 * lanes);
  Array.blit mem off dst 0 lanes

let store_i16 mem off v =
  let lanes = Array.length v in
  slice "store_i16" mem off lanes;
  Trace.store ~bytes:(2 * lanes);
  Array.blit v 0 mem off lanes

let scalar_op ?count name = Trace.sop ?count name
