(* Every lane op is a monomorphic loop over flat arrays: no closure per
   lane, so fp32 lanes stay unboxed without flambda.  All checks run
   before the loop, so an op that fails writes nothing. *)

module V = Cgsim.Value

let check_lanes name a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "aie: %s: lane mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let check_dst name dst lanes =
  if Array.length dst <> lanes then
    invalid_arg
      (Printf.sprintf "aie: %s: destination has %d lanes, expected %d" name (Array.length dst)
         lanes)

let check_indices name lanes (idx : int array) =
  for k = 0 to Array.length idx - 1 do
    let i = Array.unsafe_get idx k in
    if i < 0 || i >= lanes then invalid_arg (Printf.sprintf "aie: %s index %d out of range" name i)
  done

(* {1 fp32 lanes} *)

let fsplat lanes v = Array.make lanes (V.round_f32 v)

let fsplat_into (dst : float array) v =
  let v = V.round_f32 v in
  for i = 0 to Array.length dst - 1 do
    Array.unsafe_set dst i v
  done

let fadd (a : float array) (b : float array) =
  check_lanes "fadd" a b;
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (V.round_f32 (Array.unsafe_get a i +. Array.unsafe_get b i))
  done;
  r

let fsub (a : float array) (b : float array) =
  check_lanes "fsub" a b;
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (V.round_f32 (Array.unsafe_get a i -. Array.unsafe_get b i))
  done;
  r

let fmul (a : float array) (b : float array) =
  check_lanes "fmul" a b;
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (V.round_f32 (Array.unsafe_get a i *. Array.unsafe_get b i))
  done;
  r

let fmac_into (dst : float array) (acc : float array) (a : float array) (b : float array) =
  check_lanes "fmac" acc a;
  check_lanes "fmac" a b;
  check_dst "fmac_into" dst (Array.length a);
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i
      (V.round_f32 (Array.unsafe_get acc i +. (Array.unsafe_get a i *. Array.unsafe_get b i)))
  done

let fmac acc a b =
  let r = Array.create_float (Array.length acc) in
  fmac_into r acc a b;
  r

let fmax_into (dst : float array) (a : float array) (b : float array) =
  check_lanes "fmax" a b;
  check_dst "fmax_into" dst (Array.length a);
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    Array.unsafe_set dst i (if x >= y then x else y)
  done

let fmax a b =
  let r = Array.create_float (Array.length a) in
  fmax_into r a b;
  r

let fmin_into (dst : float array) (a : float array) (b : float array) =
  check_lanes "fmin" a b;
  check_dst "fmin_into" dst (Array.length a);
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    Array.unsafe_set dst i (if x <= y then x else y)
  done

let fmin a b =
  let r = Array.create_float (Array.length a) in
  fmin_into r a b;
  r

let fshuffle_into (dst : float array) (v : float array) idx =
  check_indices "fshuffle" (Array.length v) idx;
  check_dst "fshuffle_into" dst (Array.length idx);
  if dst == v then invalid_arg "aie: fshuffle_into: destination aliases the source";
  for k = 0 to Array.length idx - 1 do
    Array.unsafe_set dst k (Array.unsafe_get v (Array.unsafe_get idx k))
  done

let fshuffle v idx =
  let r = Array.create_float (Array.length idx) in
  fshuffle_into r v idx;
  r

let fselect_into (dst : float array) mask (a : float array) (b : float array) =
  check_lanes "fselect" a b;
  if Array.length mask <> Array.length a then invalid_arg "aie: fselect mask lane mismatch";
  check_dst "fselect_into" dst (Array.length a);
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i
      (if Array.unsafe_get mask i then Array.unsafe_get a i else Array.unsafe_get b i)
  done

let fselect mask a b =
  let r = Array.create_float (Array.length a) in
  fselect_into r mask a b;
  r

(* Pairwise tree: each step adds the upper half onto the lower half and
   rounds, as the log2(lanes) shuffle+add steps {!Intrinsics.fpsum}
   charges for would. *)
let fsum (v : float array) =
  let n = Array.length v in
  if n = 0 then 0.0
  else begin
    let t = Array.copy v in
    let w = ref n in
    while !w > 1 do
      let h = (!w + 1) / 2 in
      for i = 0 to !w - h - 1 do
        Array.unsafe_set t i (V.round_f32 (Array.unsafe_get t i +. Array.unsafe_get t (i + h)))
      done;
      w := h
    done;
    t.(0)
  end

(* {1 integer lanes} *)

let isplat lanes v = Array.make lanes v

let iadd (a : int array) (b : int array) =
  check_lanes "iadd" a b;
  let r = Array.make (Array.length a) 0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i + Array.unsafe_get b i)
  done;
  r

let isub (a : int array) (b : int array) =
  check_lanes "isub" a b;
  let r = Array.make (Array.length a) 0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i - Array.unsafe_get b i)
  done;
  r

let imul (a : int array) (b : int array) =
  check_lanes "imul" a b;
  let r = Array.make (Array.length a) 0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i * Array.unsafe_get b i)
  done;
  r

let imac_into (dst : int array) (acc : int array) (a : int array) (b : int array) =
  check_lanes "imac" acc a;
  check_lanes "imac" a b;
  check_dst "imac_into" dst (Array.length a);
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i
      (Array.unsafe_get acc i + (Array.unsafe_get a i * Array.unsafe_get b i))
  done

let imac acc a b =
  let r = Array.make (Array.length acc) 0 in
  imac_into r acc a b;
  r

let ishuffle (v : int array) idx =
  check_indices "ishuffle" (Array.length v) idx;
  let r = Array.make (Array.length idx) 0 in
  for k = 0 to Array.length idx - 1 do
    Array.unsafe_set r k (Array.unsafe_get v (Array.unsafe_get idx k))
  done;
  r

let srs_into (dst : int array) dtype shift (acc : int array) =
  if shift < 0 then invalid_arg "aie: srs with negative shift";
  check_dst "srs_into" dst (Array.length acc);
  (* Round to nearest (ties toward +inf): add half, then arithmetic shift.
     This is the AIE default rounding mode for accumulator moves. *)
  let half = if shift = 0 then 0 else 1 lsl (shift - 1) in
  match V.int_range dtype with
  | None ->
    for i = 0 to Array.length acc - 1 do
      Array.unsafe_set dst i ((Array.unsafe_get acc i + half) asr shift)
    done
  | Some (lo, hi) ->
    for i = 0 to Array.length acc - 1 do
      let x = (Array.unsafe_get acc i + half) asr shift in
      Array.unsafe_set dst i (if x < lo then lo else if x > hi then hi else x)
    done

let srs dtype shift acc =
  let r = Array.make (Array.length acc) 0 in
  srs_into r dtype shift acc;
  r

let ups shift (v : int array) =
  if shift < 0 then invalid_arg "aie: ups with negative shift";
  let r = Array.make (Array.length v) 0 in
  for i = 0 to Array.length v - 1 do
    Array.unsafe_set r i (Array.unsafe_get v i lsl shift)
  done;
  r
