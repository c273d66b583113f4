(* Tests for the AIE ISA-emulation layer: vector semantics, fixed-point
   rounding, the trace recorder (including pipelined-loop suppression),
   and graph-level failure injection on the cgsim runtime. *)

(* ------------------------------------------------------------------ *)
(* Vec: functional semantics                                          *)
(* ------------------------------------------------------------------ *)

let test_vec_lane_ops () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] and b = [| 10.0; 20.0; 30.0; 40.0 |] in
  Alcotest.(check (array (float 0.0))) "fadd" [| 11.0; 22.0; 33.0; 44.0 |] (Aie.Vec.fadd a b);
  Alcotest.(check (array (float 0.0))) "fmul" [| 10.0; 40.0; 90.0; 160.0 |] (Aie.Vec.fmul a b);
  Alcotest.(check (array (float 0.0))) "fmac"
    [| 11.0; 42.0; 93.0; 164.0 |]
    (Aie.Vec.fmac b a b |> fun v -> ignore v; Aie.Vec.fmac [| 1.0; 2.0; 3.0; 4.0 |] a b);
  Alcotest.(check (array (float 0.0))) "fmax" b (Aie.Vec.fmax a b);
  Alcotest.(check (array (float 0.0))) "fmin" a (Aie.Vec.fmin a b)

let test_vec_lane_mismatch () =
  match Aie.Vec.fadd [| 1.0 |] [| 1.0; 2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lane mismatch must be rejected"

let test_vec_shuffle () =
  let v = [| 10.0; 11.0; 12.0; 13.0 |] in
  Alcotest.(check (array (float 0.0))) "reverse" [| 13.0; 12.0; 11.0; 10.0 |]
    (Aie.Vec.fshuffle v [| 3; 2; 1; 0 |]);
  (match Aie.Vec.fshuffle v [| 4 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "out-of-range shuffle index must be rejected");
  Alcotest.(check (array (float 0.0))) "select"
    [| 10.0; 21.0; 12.0; 23.0 |]
    (Aie.Vec.fselect [| true; false; true; false |] v [| 20.0; 21.0; 22.0; 23.0 |])

let test_vec_srs_semantics () =
  (* Round to nearest (add half, arithmetic shift), saturate. *)
  (* ties round toward +inf: -0.5 becomes 0 *)
  Alcotest.(check (array int)) "round" [| 1; 2; 0 |]
    (Aie.Vec.srs Cgsim.Dtype.I16 15 [| 16384; 49152; -16384 |]);
  Alcotest.(check (array int)) "half rounds up" [| 1 |] (Aie.Vec.srs Cgsim.Dtype.I16 1 [| 1 |]);
  Alcotest.(check (array int)) "saturate" [| 32767; -32768 |]
    (Aie.Vec.srs Cgsim.Dtype.I16 0 [| 1000000; -1000000 |]);
  Alcotest.(check (array int)) "ups" [| 256; -512 |] (Aie.Vec.ups 8 [| 1; -2 |]);
  match Aie.Vec.srs Cgsim.Dtype.I16 (-1) [| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative shift must be rejected"

let prop_srs_monotone =
  QCheck.Test.make ~name:"srs is monotone" ~count:300
    QCheck.(pair (int_range (-1000000) 1000000) (int_range 0 1000))
    (fun (x, d) ->
      let lo = Aie.Vec.srs Cgsim.Dtype.I16 15 [| x |] in
      let hi = Aie.Vec.srs Cgsim.Dtype.I16 15 [| x + d |] in
      hi.(0) >= lo.(0))

let test_vec_f32_rounding () =
  (* fadd results are rounded to single precision. *)
  let big = 16777216.0 (* 2^24 *) in
  let r = Aie.Vec.fadd [| big |] [| 1.0 |] in
  Alcotest.(check (float 0.0)) "f32 precision loss" big r.(0)

let test_vec_fsum_f32_tree () =
  (* Pairwise: (2^24 + 1) + (1 + 0), each add rounded to f32, stays at
     2^24; summed in f64 the same lanes give 2^24 + 2. *)
  let v = [| 16777216.0; 1.0; 1.0; 0.0 |] in
  Alcotest.(check (float 0.0)) "f32 tree" 16777216.0 (Aie.Vec.fsum v);
  Alcotest.(check bool) "differs from the f64 sum" true
    (Aie.Vec.fsum v <> Array.fold_left ( +. ) 0.0 v);
  Alcotest.(check (float 0.0)) "no lanes" 0.0 (Aie.Vec.fsum [||]);
  Alcotest.(check (float 0.0)) "odd lane count" 6.0 (Aie.Vec.fsum [| 1.0; 2.0; 3.0 |])

(* ------------------------------------------------------------------ *)
(* Vec: differential check against scalar reference loops             *)
(* ------------------------------------------------------------------ *)

let r32 = Cgsim.Value.round_f32

type vcase = {
  fa : float array;
  fb : float array;
  fc : float array;
  mask : bool array;
  idx : int array;  (* lanes of [fa]/[ia] to shuffle, any count 1-64 *)
  ia : int array;
  ib : int array;
  ic : int array;
  shift : int;
  dtype : Cgsim.Dtype.t;
}

let special_floats =
  [|
    Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity; 16777216.0; 16777217.0;
    16777215.0; -16777216.0; 16777218.0; 0.5; -1.0;
  |]

let gen_vcase =
  let open QCheck.Gen in
  let f32 =
    frequency
      [
        2, oneofa special_floats;
        2, map r32 (float_range (-1e6) 1e6);
        1, map r32 (float_range (-3.4e7) 3.4e7);
      ]
  in
  let i = int_range (-(1 lsl 20)) (1 lsl 20) in
  int_range 1 64 >>= fun n ->
  int_range 1 64 >>= fun m ->
  array_repeat n f32 >>= fun fa ->
  array_repeat n f32 >>= fun fb ->
  array_repeat n f32 >>= fun fc ->
  array_repeat n bool >>= fun mask ->
  array_repeat m (int_range 0 (n - 1)) >>= fun idx ->
  array_repeat n i >>= fun ia ->
  array_repeat n i >>= fun ib ->
  array_repeat n i >>= fun ic ->
  int_range 0 20 >>= fun shift ->
  oneofl Cgsim.Dtype.[ I8; I16; I32; I64; U8; U16 ] >|= fun dtype ->
  { fa; fb; fc; mask; idx; ia; ib; ic; shift; dtype }

let print_vcase c =
  let fs a = String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  let is a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "fa=[%s] fb=[%s] fc=[%s] idx=[%s] ia=[%s] ib=[%s] ic=[%s] shift=%d dtype=%s"
    (fs c.fa) (fs c.fb) (fs c.fc) (is c.idx) (is c.ia) (is c.ib) (is c.ic) c.shift
    (Cgsim.Dtype.to_string c.dtype)

(* Bit-for-bit, so -0.0 <> 0.0, except that any NaN equals any NaN: which
   operand's NaN payload an x86 add propagates depends on the order the
   compiler emits the operands in. *)
let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         (Float.is_nan x && Float.is_nan y)
         || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let with_recording f =
  let r = Aie.Trace.create_recorder () in
  Aie.Trace.bind "<host>" r;
  Aie.Trace.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Aie.Trace.enabled := false;
      Aie.Trace.unbind "<host>")
    f;
  Aie.Trace.events r

let prop_vec_matches_scalar =
  QCheck.Test.make ~name:"Vec ops and _into variants == scalar loops" ~count:500
    (QCheck.make ~print:print_vcase gen_vcase)
    (fun c ->
      let n = Array.length c.fa in
      let lanes f = Array.init n f in
      let fails = ref [] in
      let check name ok = if not ok then fails := name :: !fails in
      let cf name got want = check name (same_floats got want) in
      let ci name (got : int array) want = check name (got = want) in
      (* Destinations start as garbage so an unwritten lane shows. *)
      let fdst len = Array.make len 42.0 and idst len = Array.make len 42 in
      let into_f len f = let d = fdst len in f d; d in
      let into_i len f = let d = idst len in f d; d in
      let fmin_ref = lanes (fun i -> if c.fa.(i) <= c.fb.(i) then c.fa.(i) else c.fb.(i)) in
      let fmax_ref = lanes (fun i -> if c.fa.(i) >= c.fb.(i) then c.fa.(i) else c.fb.(i)) in
      let fmac_ref = lanes (fun i -> r32 (c.fc.(i) +. (c.fa.(i) *. c.fb.(i)))) in
      let fsel_ref = lanes (fun i -> if c.mask.(i) then c.fa.(i) else c.fb.(i)) in
      let fshuf_ref = Array.map (fun k -> c.fa.(k)) c.idx in
      let splat_ref = Array.make n (r32 c.fb.(0)) in
      cf "fadd" (Aie.Vec.fadd c.fa c.fb) (lanes (fun i -> r32 (c.fa.(i) +. c.fb.(i))));
      cf "fsub" (Aie.Vec.fsub c.fa c.fb) (lanes (fun i -> r32 (c.fa.(i) -. c.fb.(i))));
      cf "fmul" (Aie.Vec.fmul c.fa c.fb) (lanes (fun i -> r32 (c.fa.(i) *. c.fb.(i))));
      cf "fmin" (Aie.Vec.fmin c.fa c.fb) fmin_ref;
      cf "fmax" (Aie.Vec.fmax c.fa c.fb) fmax_ref;
      cf "fmac" (Aie.Vec.fmac c.fc c.fa c.fb) fmac_ref;
      cf "fselect" (Aie.Vec.fselect c.mask c.fa c.fb) fsel_ref;
      cf "fshuffle" (Aie.Vec.fshuffle c.fa c.idx) fshuf_ref;
      cf "fsplat" (Aie.Vec.fsplat n c.fb.(0)) splat_ref;
      cf "fmin_into" (into_f n (fun d -> Aie.Vec.fmin_into d c.fa c.fb)) fmin_ref;
      cf "fmax_into" (into_f n (fun d -> Aie.Vec.fmax_into d c.fa c.fb)) fmax_ref;
      cf "fmac_into" (into_f n (fun d -> Aie.Vec.fmac_into d c.fc c.fa c.fb)) fmac_ref;
      cf "fselect_into" (into_f n (fun d -> Aie.Vec.fselect_into d c.mask c.fa c.fb)) fsel_ref;
      cf "fshuffle_into"
        (into_f (Array.length c.idx) (fun d -> Aie.Vec.fshuffle_into d c.fa c.idx))
        fshuf_ref;
      cf "fsplat_into" (into_f n (fun d -> Aie.Vec.fsplat_into d c.fb.(0))) splat_ref;
      (* Lane-wise _into variants may write over an input. *)
      let over src f = let d = Array.copy src in f d; d in
      cf "fmin_into dst=a" (over c.fa (fun d -> Aie.Vec.fmin_into d d c.fb)) fmin_ref;
      cf "fmin_into dst=b" (over c.fb (fun d -> Aie.Vec.fmin_into d c.fa d)) fmin_ref;
      cf "fmax_into dst=b" (over c.fb (fun d -> Aie.Vec.fmax_into d c.fa d)) fmax_ref;
      cf "fmac_into dst=acc" (over c.fc (fun d -> Aie.Vec.fmac_into d d c.fa c.fb)) fmac_ref;
      cf "fselect_into dst=a" (over c.fa (fun d -> Aie.Vec.fselect_into d c.mask d c.fb)) fsel_ref;
      let imac_ref = lanes (fun i -> c.ic.(i) + (c.ia.(i) * c.ib.(i))) in
      let srs_ref =
        lanes (fun i ->
            let half = if c.shift = 0 then 0 else 1 lsl (c.shift - 1) in
            Cgsim.Value.clamp_int c.dtype ((c.ia.(i) + half) asr c.shift))
      in
      ci "isplat" (Aie.Vec.isplat n c.ib.(0)) (Array.make n c.ib.(0));
      ci "iadd" (Aie.Vec.iadd c.ia c.ib) (lanes (fun i -> c.ia.(i) + c.ib.(i)));
      ci "isub" (Aie.Vec.isub c.ia c.ib) (lanes (fun i -> c.ia.(i) - c.ib.(i)));
      ci "imul" (Aie.Vec.imul c.ia c.ib) (lanes (fun i -> c.ia.(i) * c.ib.(i)));
      ci "imac" (Aie.Vec.imac c.ic c.ia c.ib) imac_ref;
      ci "ishuffle" (Aie.Vec.ishuffle c.ia c.idx) (Array.map (fun k -> c.ia.(k)) c.idx);
      ci "srs" (Aie.Vec.srs c.dtype c.shift c.ia) srs_ref;
      ci "ups" (Aie.Vec.ups c.shift c.ia) (lanes (fun i -> c.ia.(i) lsl c.shift));
      ci "imac_into" (into_i n (fun d -> Aie.Vec.imac_into d c.ic c.ia c.ib)) imac_ref;
      ci "imac_into dst=acc" (over c.ic (fun d -> Aie.Vec.imac_into d d c.ia c.ib)) imac_ref;
      ci "srs_into" (into_i n (fun d -> Aie.Vec.srs_into d c.dtype c.shift c.ia)) srs_ref;
      ci "srs_into dst=acc" (over c.ia (fun d -> Aie.Vec.srs_into d c.dtype c.shift d)) srs_ref;
      (* Intrinsics: each _into gives its allocating twin's result and
         records exactly its event. *)
      let twin name alloc into =
        let got_a = ref [||] and got_i = ref [||] in
        let ev_a = with_recording (fun () -> got_a := alloc ()) in
        let ev_i = with_recording (fun () -> got_i := into ()) in
        check (name ^ " events") (ev_a = ev_i && List.length ev_a = 1);
        check (name ^ " result") (same_floats !got_a !got_i)
      in
      let module I = Aie.Intrinsics in
      twin "fpmin"
        (fun () -> I.fpmin c.fa c.fb)
        (fun () -> into_f n (fun d -> I.fpmin_into d c.fa c.fb));
      twin "fpmax"
        (fun () -> I.fpmax c.fa c.fb)
        (fun () -> into_f n (fun d -> I.fpmax_into d c.fa c.fb));
      twin "fpmac"
        (fun () -> I.fpmac c.fc c.fa c.fb)
        (fun () -> into_f n (fun d -> I.fpmac_into d c.fc c.fa c.fb));
      twin "fpselect"
        (fun () -> I.fpselect c.mask c.fa c.fb)
        (fun () -> into_f n (fun d -> I.fpselect_into d c.mask c.fa c.fb));
      twin "fpshuffle"
        (fun () -> I.fpshuffle c.fa c.idx)
        (fun () -> into_f (Array.length c.idx) (fun d -> I.fpshuffle_into d c.fa c.idx));
      twin "fpsplat"
        (fun () -> I.fpsplat n c.fb.(0))
        (fun () -> into_f n (fun d -> I.fpsplat_into d c.fb.(0)));
      twin "load_f32"
        (fun () -> I.load_f32 c.fa 0 n)
        (fun () -> into_f n (fun d -> I.load_f32_into d c.fa 0));
      let as_floats a = Array.map float_of_int a in
      twin "mac16"
        (fun () -> as_floats (I.mac16 c.ic c.ia c.ib))
        (fun () -> as_floats (into_i n (fun d -> I.mac16_into d c.ic c.ia c.ib)));
      twin "srs16"
        (fun () -> as_floats (I.srs16 ~shift:c.shift c.ia))
        (fun () -> as_floats (into_i n (fun d -> I.srs16_into d ~shift:c.shift c.ia)));
      twin "load_i16"
        (fun () -> as_floats (I.load_i16 c.ia 0 n))
        (fun () -> as_floats (into_i n (fun d -> I.load_i16_into d c.ia 0)));
      match !fails with
      | [] -> true
      | names -> QCheck.Test.fail_reportf "mismatch in %s" (String.concat ", " (List.rev names)))

let expect_invalid what msg f =
  match f () with
  | exception Invalid_argument m -> Alcotest.(check string) what msg m
  | _ -> Alcotest.failf "%s: expected Invalid_argument %S" what msg

let test_vec_error_paths () =
  let a4 = [| 1.0; 2.0; 3.0; 4.0 |] and i4 = [| 1; 2; 3; 4 |] in
  let d3 = Array.make 3 0.0 and i3 = Array.make 3 0 in
  expect_invalid "fadd mismatch" "aie: fadd: lane mismatch (1 vs 4)" (fun () ->
      Aie.Vec.fadd [| 1.0 |] a4);
  expect_invalid "fmin_into mismatch" "aie: fmin: lane mismatch (4 vs 3)" (fun () ->
      Aie.Vec.fmin_into a4 a4 d3);
  expect_invalid "fmac mismatch" "aie: fmac: lane mismatch (3 vs 4)" (fun () ->
      Aie.Vec.fmac d3 a4 a4);
  expect_invalid "imac mismatch" "aie: imac: lane mismatch (4 vs 3)" (fun () ->
      Aie.Vec.imac i4 i4 i3);
  expect_invalid "iadd mismatch" "aie: iadd: lane mismatch (4 vs 3)" (fun () ->
      Aie.Vec.iadd i4 i3);
  expect_invalid "fshuffle index" "aie: fshuffle index 4 out of range" (fun () ->
      Aie.Vec.fshuffle a4 [| 0; 4 |]);
  expect_invalid "fshuffle negative index" "aie: fshuffle index -1 out of range" (fun () ->
      Aie.Vec.fshuffle a4 [| -1 |]);
  expect_invalid "ishuffle index" "aie: ishuffle index 9 out of range" (fun () ->
      Aie.Vec.ishuffle i4 [| 9 |]);
  expect_invalid "fselect mask" "aie: fselect mask lane mismatch" (fun () ->
      Aie.Vec.fselect [| true |] a4 a4);
  expect_invalid "fselect_into mask" "aie: fselect mask lane mismatch" (fun () ->
      Aie.Vec.fselect_into a4 [| true |] a4 a4);
  expect_invalid "srs shift" "aie: srs with negative shift" (fun () ->
      Aie.Vec.srs Cgsim.Dtype.I16 (-1) i4);
  expect_invalid "srs_into shift" "aie: srs with negative shift" (fun () ->
      Aie.Vec.srs_into i4 Cgsim.Dtype.I16 (-1) i4);
  expect_invalid "ups shift" "aie: ups with negative shift" (fun () -> Aie.Vec.ups (-1) i4);
  let dst name = Printf.sprintf "aie: %s_into: destination has 3 lanes, expected 4" name in
  expect_invalid "fmin dst" (dst "fmin") (fun () -> Aie.Vec.fmin_into d3 a4 a4);
  expect_invalid "fmax dst" (dst "fmax") (fun () -> Aie.Vec.fmax_into d3 a4 a4);
  expect_invalid "fmac dst" (dst "fmac") (fun () -> Aie.Vec.fmac_into d3 a4 a4 a4);
  expect_invalid "fselect dst" (dst "fselect") (fun () ->
      Aie.Vec.fselect_into d3 [| true; true; false; false |] a4 a4);
  expect_invalid "fshuffle dst" (dst "fshuffle") (fun () ->
      Aie.Vec.fshuffle_into d3 a4 [| 0; 1; 2; 3 |]);
  expect_invalid "imac dst" (dst "imac") (fun () -> Aie.Vec.imac_into i3 i4 i4 i4);
  expect_invalid "srs dst" (dst "srs") (fun () -> Aie.Vec.srs_into i3 Cgsim.Dtype.I16 0 i4);
  expect_invalid "mac16 dst" (dst "imac") (fun () -> Aie.Intrinsics.mac16_into i3 i4 i4 i4);
  expect_invalid "load_f32_into range" "aie: load_f32 out of range (off=2 lanes=3 len=4)"
    (fun () -> Aie.Intrinsics.load_f32_into d3 a4 2);
  expect_invalid "fshuffle_into alias" "aie: fshuffle_into: destination aliases the source"
    (fun () -> Aie.Vec.fshuffle_into a4 a4 [| 3; 2; 1; 0 |]);
  (* Checks run before the loop: a failing op leaves its destination as
     it was. *)
  let d = Array.make 4 7.0 in
  (match Aie.Vec.fshuffle_into d a4 [| 0; 1; 2; 5 |] with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "out-of-range index must be rejected");
  Alcotest.(check (array (float 0.0))) "dst untouched" (Array.make 4 7.0) d

(* With tracing off the destination-passing intrinsics allocate nothing:
   no result vector and no trace event. *)
let test_intrinsics_into_no_alloc () =
  let a = Array.make 16 1.5 and b = Array.make 16 2.5 and d = Array.make 16 0.0 in
  let perm = Array.init 16 (fun i -> 15 - i) and keep = Array.init 16 (fun i -> i land 1 = 0) in
  let ia = Array.make 32 3 and id = Array.make 32 0 in
  let mem = Array.make 64 0.25 in
  let step () =
    Aie.Intrinsics.fpshuffle_into d a perm;
    Aie.Intrinsics.fpmin_into d a d;
    Aie.Intrinsics.fpmax_into d b d;
    Aie.Intrinsics.fpselect_into d keep a d;
    Aie.Intrinsics.fpmac_into d d a b;
    Aie.Intrinsics.load_f32_into d mem 16;
    Aie.Intrinsics.mac16_into id id ia ia;
    Aie.Intrinsics.srs16_into id ~shift:3 id;
    Aie.Intrinsics.scalar_op ~count:2 "ctl"
  in
  step ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    step ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "minor words for 1000 steps (got %.0f)" words) true
    (words < 100.0)

(* ------------------------------------------------------------------ *)
(* Intrinsics: cost emission                                          *)
(* ------------------------------------------------------------------ *)

let test_intrinsics_emit_costs () =
  let a16 = Array.make 16 1.0 in
  let events =
    with_recording (fun () ->
        ignore (Aie.Intrinsics.fpmac (Array.make 16 0.0) a16 a16);
        ignore (Aie.Intrinsics.mac16 (Array.make 32 0) (Array.make 32 1) (Array.make 32 2));
        ignore (Aie.Intrinsics.load_f32 (Array.make 64 0.0) 0 8);
        Aie.Intrinsics.scalar_op "addr")
  in
  match events with
  | [ Aie.Trace.Vop { name = "fpmac"; slots = 2 };  (* 16 fp lanes = 2 slots *)
      Aie.Trace.Vop { name = "mac16"; slots = 1 };  (* 32 i16 lanes = 1 slot *)
      Aie.Trace.Load { bytes = 32 };
      Aie.Trace.Sop { name = "addr"; count = 1 } ] ->
    ()
  | evs ->
    Alcotest.failf "unexpected events: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Aie.Trace.pp_event) evs))

let test_intrinsics_disabled_is_silent () =
  let r = Aie.Trace.create_recorder () in
  Aie.Trace.bind "<host>" r;
  (* enabled = false: nothing may be recorded *)
  ignore (Aie.Intrinsics.fpadd [| 1.0 |] [| 2.0 |]);
  Aie.Trace.unbind "<host>";
  Alcotest.(check int) "no events" 0 (Aie.Trace.event_count r)

let test_intrinsics_bounds () =
  match Aie.Intrinsics.load_f32 (Array.make 4 0.0) 2 8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range vector load must be rejected"

(* ------------------------------------------------------------------ *)
(* Trace: pipelined-loop recording                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_loop_suppression () =
  let executions = ref 0 in
  let events =
    with_recording (fun () ->
        Aie.Trace.with_pipelined_loop ~trip:10 (fun _ ->
            incr executions;
            Aie.Trace.vop ~slots:1 "body"))
  in
  Alcotest.(check int) "body ran trip times" 10 !executions;
  match events with
  | [ Aie.Trace.Loop_enter { trip = 10 }; Aie.Trace.Vop { name = "body"; _ }; Aie.Trace.Loop_exit ]
    ->
    ()
  | evs -> Alcotest.failf "expected one recorded iteration, got %d events" (List.length evs)

let test_trace_loop_abort_marker () =
  let events =
    with_recording (fun () ->
        try
          Aie.Trace.with_pipelined_loop ~trip:10 (fun _ ->
              Aie.Trace.vop ~slots:1 "partial";
              raise Exit)
        with Exit -> ())
  in
  match events with
  | [ Aie.Trace.Loop_enter _; Aie.Trace.Vop _; Aie.Trace.Loop_abort ] -> ()
  | evs -> Alcotest.failf "expected abort marker, got %d events" (List.length evs)

let test_trace_zero_trip () =
  let events = with_recording (fun () -> Aie.Trace.with_pipelined_loop ~trip:0 (fun _ -> ())) in
  Alcotest.(check int) "no events for empty loop" 0 (List.length events)

(* The abort path as it actually occurs in a graph run: the input stream
   drains while iteration 0 of a pipelined loop is being recorded, so
   [Cgsim.Port.get] raises [End_of_stream] mid-body.  The region must be
   closed with [Loop_abort] (so replay does not multiply a partial body
   by the trip count) and the run must still terminate cleanly. *)
let loop4_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"fi_loop4"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.I32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Aie.Trace.with_pipelined_loop ~trip:4 (fun _ ->
            Aie.Trace.vop ~slots:1 "work";
            Cgsim.Port.put o (Cgsim.Port.get i))
      done)

let () = Cgsim.Registry.register loop4_kernel

let test_trace_loop_abort_on_end_of_stream () =
  let g =
    Cgsim.Builder.make ~name:"abortg" ~inputs:[ "x", Cgsim.Dtype.I32 ] (fun b conns ->
        let out = Cgsim.Builder.net b Cgsim.Dtype.I32 in
        ignore (Cgsim.Builder.add_kernel b ~inst:"abortk" loop4_kernel [ List.hd conns; out ]);
        [ out ])
  in
  let r = Aie.Trace.create_recorder () in
  Aie.Trace.bind "abortk" r;
  Aie.Trace.enabled := true;
  let sink, contents = Cgsim.Io.int_buffer () in
  Fun.protect
    ~finally:(fun () ->
      Aie.Trace.enabled := false;
      Aie.Trace.unbind "abortk")
    (fun () ->
      (* Exactly one full trip of input: the second loop region's first
         body read hits the drained stream. *)
      ignore
        (Cgsim.Runtime.execute_exn g
           ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 [| 1; 2; 3; 4 |] ]
           ~sinks:[ sink ]));
  Alcotest.(check (array int)) "full first trip delivered" [| 1; 2; 3; 4 |] (contents ());
  match Aie.Trace.events r with
  | [
   Aie.Trace.Loop_enter { trip = 4 };
   Aie.Trace.Vop { name = "work"; _ };
   Aie.Trace.Loop_exit;
   Aie.Trace.Loop_enter { trip = 4 };
   Aie.Trace.Vop { name = "work"; _ };
   Aie.Trace.Loop_abort;
  ] ->
    ()
  | evs ->
    Alcotest.failf "unexpected event sequence: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Aie.Trace.pp_event) evs))

(* ------------------------------------------------------------------ *)
(* Failure injection at graph level                                   *)
(* ------------------------------------------------------------------ *)

let pass_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"fi_pass"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.I32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put o (Cgsim.Port.get i)
      done)

let sum2_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"fi_sum2"
    [
      Cgsim.Kernel.in_port "a" Cgsim.Dtype.I32;
      Cgsim.Kernel.in_port "b" Cgsim.Dtype.I32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32;
    ]
    (fun bd ->
      let a = Cgsim.Kernel.rd bd 0 and b = Cgsim.Kernel.rd bd 1 and o = Cgsim.Kernel.wr bd 0 in
      while true do
        let x = Cgsim.Port.get_int a in
        let y = Cgsim.Port.get_int b in
        Cgsim.Port.put_int o (x + y)
      done)

let () =
  Cgsim.Registry.register pass_kernel;
  Cgsim.Registry.register sum2_kernel

let test_cyclic_graph_terminates () =
  (* A feedback loop with no initial token deadlocks; the run must END
     (fibers cancelled), not hang — the paper's "no explicit termination
     condition" semantics. *)
  let g =
    Cgsim.Builder.make ~name:"cycle" ~inputs:[ "x", Cgsim.Dtype.I32 ] (fun b conns ->
        let fb = Cgsim.Builder.net b Cgsim.Dtype.I32 in
        let out = Cgsim.Builder.net b Cgsim.Dtype.I32 in
        (* sum2 needs both the input and its own (never-written-first)
           feedback, so nothing can ever fire. *)
        ignore (Cgsim.Builder.add_kernel b sum2_kernel [ List.hd conns; fb; out ]);
        ignore (Cgsim.Builder.add_kernel b pass_kernel [ out; fb ]);
        [ out ])
  in
  let sink, contents = Cgsim.Io.buffer () in
  let stats =
    Cgsim.Runtime.execute_exn g
      ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 [| 1; 2; 3 |] ]
      ~sinks:[ sink ]
  in
  Alcotest.(check (list string)) "no output" [] (List.map Cgsim.Value.to_string (contents ()));
  Alcotest.(check bool) "stalled fibers were cancelled" true (stats.Cgsim.Sched.cancelled > 0)

let test_unbalanced_merge_drains () =
  (* Merge of two finite streams of different lengths: the kernel reads
     alternately, so once the shorter source closes it ends mid-protocol;
     everything must still terminate cleanly. *)
  let g =
    Cgsim.Builder.make ~name:"unbalanced"
      ~inputs:[ "a", Cgsim.Dtype.I32; "b", Cgsim.Dtype.I32 ]
      (fun bd conns ->
        match conns with
        | [ a; b ] ->
          let out = Cgsim.Builder.net bd Cgsim.Dtype.I32 in
          ignore (Cgsim.Builder.add_kernel bd sum2_kernel [ a; b; out ]);
          [ out ]
        | _ -> assert false)
  in
  let sink, contents = Cgsim.Io.int_buffer () in
  let _ =
    Cgsim.Runtime.execute_exn g
      ~sources:
        [
          Cgsim.Io.of_int_array Cgsim.Dtype.I32 [| 1; 2; 3; 4; 5 |];
          Cgsim.Io.of_int_array Cgsim.Dtype.I32 [| 10; 20 |];
        ]
      ~sinks:[ sink ]
  in
  Alcotest.(check (array int)) "pairs up to the shorter stream" [| 11; 22 |] (contents ())

let test_aiesim_rejects_partial_blocks () =
  (* bilinear's pipelined loop needs whole 256-quad blocks; feeding a
     partial block must surface as a clean error, not a hang. *)
  let h = Apps.Harness.bilinear in
  let quads = Workloads.Images.random_quads ~seed:3 100 (* not a multiple of 256 *) in
  let sink = Cgsim.Io.null () in
  match
    Aiesim.Sim.run
      (Aiesim.Deploy.baseline (h.Apps.Harness.graph ()))
      ~sources:[ Cgsim.Io.of_array (Array.map Apps.Bilinear.quad_value quads) ]
      ~sinks:[ sink ]
  with
  | exception Aiesim.Sim.Sim_error _ -> ()
  | _report ->
    (* Acceptable too: the partial tail may replay as an aborted region. *)
    ()

let () =
  Alcotest.run "aie"
    [
      ( "vec",
        [
          Alcotest.test_case "lane ops" `Quick test_vec_lane_ops;
          Alcotest.test_case "lane mismatch" `Quick test_vec_lane_mismatch;
          Alcotest.test_case "shuffle/select" `Quick test_vec_shuffle;
          Alcotest.test_case "srs semantics" `Quick test_vec_srs_semantics;
          Alcotest.test_case "f32 rounding" `Quick test_vec_f32_rounding;
          Alcotest.test_case "fsum f32 tree" `Quick test_vec_fsum_f32_tree;
          Alcotest.test_case "error paths" `Quick test_vec_error_paths;
          QCheck_alcotest.to_alcotest prop_srs_monotone;
          QCheck_alcotest.to_alcotest prop_vec_matches_scalar;
        ] );
      ( "intrinsics",
        [
          Alcotest.test_case "cost emission" `Quick test_intrinsics_emit_costs;
          Alcotest.test_case "disabled is silent" `Quick test_intrinsics_disabled_is_silent;
          Alcotest.test_case "bounds" `Quick test_intrinsics_bounds;
          Alcotest.test_case "_into allocates nothing untraced" `Quick
            test_intrinsics_into_no_alloc;
        ] );
      ( "trace",
        [
          Alcotest.test_case "loop suppression" `Quick test_trace_loop_suppression;
          Alcotest.test_case "loop abort marker" `Quick test_trace_loop_abort_marker;
          Alcotest.test_case "zero trip" `Quick test_trace_zero_trip;
          Alcotest.test_case "abort on end of stream" `Quick
            test_trace_loop_abort_on_end_of_stream;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "cyclic graph terminates" `Quick test_cyclic_graph_terminates;
          Alcotest.test_case "unbalanced merge drains" `Quick test_unbalanced_merge_drains;
          Alcotest.test_case "partial blocks rejected" `Quick test_aiesim_rejects_partial_blocks;
        ] );
    ]
