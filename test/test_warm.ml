(* Warm-instance serving tests: the compile-once / reset lifecycle must
   be observationally identical to fresh instantiation — across all four
   evaluation apps, by default and in reference mode,
   under deterministic fault injection, and after failed or
   fuel-exhausted runs — and pure-graph request batching must demultiplex
   outputs exactly as per-request execution would. *)

module R = Cgsim.Runtime

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

(* Elementwise doubler declared pure + stateless: batching-eligible. *)
let pure_scale =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"warm_scale" ~pure:true ~stateless:true
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (2.0 *. Cgsim.Port.get_f32 i)
      done)

(* Running-sum kernel: pure (state is local to the body closure, so
   pool-safe) but NOT stateless — its output depends on everything seen
   so far, so concatenating requests would corrupt all but the first. *)
let prefix_sum_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"warm_prefix_sum" ~pure:true
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      let acc = ref 0.0 in
      while true do
        acc := !acc +. Cgsim.Port.get_f32 i;
        Cgsim.Port.put_f32 o !acc
      done)

(* Identity kernel that never declared its purity: batching-ineligible. *)
let opaque_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"warm_opaque"
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (Cgsim.Port.get_f32 i)
      done)

let () =
  Cgsim.Registry.register pure_scale;
  Cgsim.Registry.register prefix_sum_kernel;
  Cgsim.Registry.register opaque_kernel

(* in -> warm_scale_0 -> warm_scale_1 -> out  (x4 elementwise) *)
let pure_graph () =
  Cgsim.Builder.make ~name:"warm_pure_chain" ~inputs:[ "x", Cgsim.Dtype.F32 ]
    (fun b conns ->
      let mid = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b pure_scale [ List.hd conns; mid ]);
      ignore (Cgsim.Builder.add_kernel b pure_scale [ mid; out ]);
      [ out ])

let prefix_sum_graph () =
  Cgsim.Builder.make ~name:"warm_prefix_graph" ~inputs:[ "x", Cgsim.Dtype.F32 ]
    (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b prefix_sum_kernel [ List.hd conns; out ]);
      [ out ])

let opaque_graph () =
  Cgsim.Builder.make ~name:"warm_opaque_graph" ~inputs:[ "x", Cgsim.Dtype.F32 ]
    (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b opaque_kernel [ List.hd conns; out ]);
      [ out ])

let values_equal msg (a : Cgsim.Value.t list) (b : Cgsim.Value.t list) =
  Alcotest.(check int) (msg ^ ": output count") (List.length a) (List.length b);
  Alcotest.(check bool) (msg ^ ": outputs equal") true
    (List.for_all2 Cgsim.Value.equal a b)

let run_checked msg (h : Apps.Harness.t) inst ~reps =
  let sinks, contents = h.Apps.Harness.make_sinks () in
  (match R.run inst ~sources:(h.Apps.Harness.sources ~reps) ~sinks with
   | R.Completed _ -> ()
   | o -> Alcotest.failf "%s: expected Completed, got %a" msg R.pp_outcome o);
  let out = contents () in
  (match h.Apps.Harness.check ~reps out with
   | Ok () -> ()
   | Error e -> Alcotest.failf "%s: %s" msg e);
  out

(* ------------------------------------------------------------------ *)
(* Reset equivalence across apps, by default and in reference mode     *)
(* ------------------------------------------------------------------ *)

let modes = Cgsim.Run_config.[ "default", default; "reference", with_reference true default ]

(* reset-and-rerun == fresh run, for every app in both modes.  The first
   run after [new_instance] is the fresh baseline; the post-reset run
   must match it bit for bit. *)
let test_reset_matches_fresh_all_apps () =
  List.iter
    (fun (h : Apps.Harness.t) ->
      List.iter
        (fun (cname, config) ->
          let label = Printf.sprintf "%s/%s" h.Apps.Harness.name cname in
          let compiled = R.compile ~config (h.Apps.Harness.graph ()) in
          let inst = R.new_instance compiled in
          let fresh = run_checked (label ^ " fresh") h inst ~reps:2 in
          R.reset inst;
          let warm = run_checked (label ^ " after reset") h inst ~reps:2 in
          values_equal label fresh warm)
        modes)
    Apps.Harness.all

(* Many reset cycles on one instance: no drift, no resource leak into
   wrong answers. *)
let test_reset_many_cycles () =
  let h = Apps.Harness.bitonic in
  let inst = R.new_instance (R.compile (h.Apps.Harness.graph ())) in
  let baseline = run_checked "cycle 0" h inst ~reps:3 in
  for cycle = 1 to 5 do
    R.reset inst;
    let out = run_checked (Printf.sprintf "cycle %d" cycle) h inst ~reps:3 in
    values_equal (Printf.sprintf "cycle %d" cycle) baseline out
  done

let test_reset_during_run_rejected () =
  let h = Apps.Harness.bitonic in
  let inst = R.new_instance (R.compile (h.Apps.Harness.graph ())) in
  ignore (run_checked "pre" h inst ~reps:1);
  (* A used instance refuses a second run until reset. *)
  let sinks, _ = h.Apps.Harness.make_sinks () in
  (match R.run inst ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks with
   | exception R.Runtime_error msg ->
     Alcotest.(check bool) ("mentions reset: " ^ msg) true
       (let nl = String.length "reset" in
        let rec at i =
          i + nl <= String.length msg && (String.sub msg i nl = "reset" || at (i + 1))
        in
        at 0)
   | _ -> Alcotest.fail "second run without reset must raise");
  R.reset inst;
  ignore (run_checked "post" h inst ~reps:1)

(* ------------------------------------------------------------------ *)
(* Reset equivalence under deterministic fault injection              *)
(* ------------------------------------------------------------------ *)

(* Two identically-seeded fault plans drive two sequences of three runs:
   one re-instantiating from scratch every time, one resetting a single
   warm instance.  Outcome labels and sink contents (including the
   partial output of the faulted run) must agree run by run. *)
let test_reset_equivalence_under_faults () =
  let h = Apps.Harness.bitonic in
  let specs seed =
    Cgsim.Faults.plan ~seed [ Cgsim.Faults.raise_on ~kernel:"*" ~after:1 ~fires:1 () ]
  in
  let run_sequence make_inst =
    List.map
      (fun i ->
        let inst = make_inst () in
        let sinks, contents = h.Apps.Harness.make_sinks () in
        let o = R.run inst ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks in
        ignore i;
        R.outcome_label o, contents ())
      [ 0; 1; 2 ]
  in
  let fresh_cfg = Cgsim.Run_config.(with_faults (specs 11) default) in
  let fresh_graph = h.Apps.Harness.graph () in
  let fresh_seq =
    run_sequence (fun () -> R.instantiate ~config:fresh_cfg fresh_graph)
  in
  let warm_cfg = Cgsim.Run_config.(with_faults (specs 11) default) in
  let warm_inst = ref None in
  let warm_seq =
    run_sequence (fun () ->
        match !warm_inst with
        | None ->
          let inst = R.new_instance (R.compile ~config:warm_cfg (h.Apps.Harness.graph ())) in
          warm_inst := Some inst;
          inst
        | Some inst ->
          R.reset inst;
          inst)
  in
  List.iteri
    (fun i ((fl, fo), (wl, wo)) ->
      Alcotest.(check string) (Printf.sprintf "run %d outcome" i) fl wl;
      values_equal (Printf.sprintf "run %d" i) fo wo)
    (List.combine fresh_seq warm_seq);
  (* The fire budget must have been spent exactly once per sequence:
     first run fails, the rest complete. *)
  match fresh_seq with
  | (l0, _) :: rest ->
    Alcotest.(check string) "first run faulted" "failed" l0;
    List.iter (fun (l, _) -> Alcotest.(check string) "later runs clean" "completed" l) rest
  | [] -> assert false

(* A poisoned instance — one whose run ended in [Kernel_failed] — must
   reset to a clean, correct instance. *)
let test_reset_after_kernel_failed () =
  let h = Apps.Harness.farrow in
  let faults = Cgsim.Faults.plan ~seed:7 [ Cgsim.Faults.raise_on ~kernel:"*" ~after:1 ~fires:1 () ] in
  let config = Cgsim.Run_config.(with_faults faults default) in
  let inst = R.new_instance (R.compile ~config (h.Apps.Harness.graph ())) in
  let sinks, _ = h.Apps.Harness.make_sinks () in
  (match R.run inst ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks with
   | R.Kernel_failed f ->
     (match f.R.f_exn with
      | Cgsim.Faults.Injected _ -> ()
      | e -> Alcotest.failf "unexpected failure exn %s" (Printexc.to_string e))
   | o -> Alcotest.failf "expected Kernel_failed, got %a" R.pp_outcome o);
  R.reset inst;
  ignore (run_checked "after Kernel_failed + reset" h inst ~reps:2)

(* Same for a run stopped by the fuel budget ([Deadline_exceeded] with
   [`Max_steps]): a one-shot stall burns the fuel, the reset instance
   then completes well inside the same budget. *)
let test_reset_after_max_steps () =
  let h = Apps.Harness.bitonic in
  let faults = Cgsim.Faults.plan ~seed:3 [ Cgsim.Faults.stall_on ~kernel:"*" ~after:1 ~fires:1 () ] in
  let config = Cgsim.Run_config.(default |> with_faults faults |> with_max_steps 100_000) in
  let inst = R.new_instance (R.compile ~config (h.Apps.Harness.graph ())) in
  let sinks, _ = h.Apps.Harness.make_sinks () in
  (match R.run inst ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks with
   | R.Deadline_exceeded p ->
     Alcotest.(check bool) "stopped by fuel" true (p.R.p_reason = `Max_steps)
   | o -> Alcotest.failf "expected Deadline_exceeded, got %a" R.pp_outcome o);
  R.reset inst;
  ignore (run_checked "after Max_steps + reset" h inst ~reps:2)

(* ------------------------------------------------------------------ *)
(* Compiled-graph properties                                          *)
(* ------------------------------------------------------------------ *)

let test_compiled_purity_and_analysis () =
  Alcotest.(check bool) "stateless chain is batching-safe" true
    (Cgsim.Pool_safety.batching_safe (pure_graph ()));
  Alcotest.(check bool) "pure-but-stateful graph is not" false
    (Cgsim.Pool_safety.batching_safe (prefix_sum_graph ()));
  Alcotest.(check bool) "unannotated graph is not" false
    (Cgsim.Pool_safety.batching_safe (opaque_graph ()));
  Alcotest.(check bool) "compiled_batchable agrees (stateless)" true
    (R.compiled_batchable (R.compile (pure_graph ())));
  Alcotest.(check bool) "compiled_pure but not batchable (prefix sum)" true
    (let c = R.compile (prefix_sum_graph ()) in
     R.compiled_pure c && not (R.compiled_batchable c));
  Alcotest.(check bool) "compiled_pure agrees (opaque)" false
    (R.compiled_pure (R.compile (opaque_graph ())));
  (* ~stateless requires ~pure:true. *)
  (match
     Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"warm_bad" ~stateless:true
       [ Cgsim.Kernel.out_port "o" Cgsim.Dtype.F32 ]
       (fun _ -> ())
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "~stateless without ~pure:true must be rejected");
  (* Every evaluation app is pool-safe (pure), but only the windowed
     block-independent apps are concatenation-safe: the farrow and IIR
     filters carry delay lines across their input stream. *)
  List.iter
    (fun (h : Apps.Harness.t) ->
      let expected =
        match h.Apps.Harness.name with
        | "bitonic" | "bilinear" -> true
        | _ -> false
      in
      Alcotest.(check bool) (h.Apps.Harness.name ^ " batching-safe") expected
        (Cgsim.Pool_safety.batching_safe (h.Apps.Harness.graph ())))
    Apps.Harness.all

(* ------------------------------------------------------------------ *)
(* Pool batching                                                      *)
(* ------------------------------------------------------------------ *)

let n_requests = 8
let req_len = 8

let request_input r = Array.init req_len (fun i -> float_of_int ((r * 100) + i))

let pool_io bufs r =
  let sink, contents = Cgsim.Io.f32_buffer () in
  bufs.(r) <- contents;
  [ Cgsim.Io.of_f32_array (request_input r) ], [ sink ]

let check_scaled_outputs msg (stats : Cgsim.Pool.stats) bufs =
  Array.iteri
    (fun r (res : Cgsim.Pool.request_result) ->
      (match res.Cgsim.Pool.outcome with
       | R.Completed _ -> ()
       | o -> Alcotest.failf "%s: request %d: %a" msg r R.pp_outcome o);
      let expected = Array.map (fun v -> 4.0 *. v) (request_input r) in
      Alcotest.(check (array (float 1e-6)))
        (Printf.sprintf "%s: request %d output" msg r)
        expected (bufs.(r) ()))
    stats.Cgsim.Pool.results

(* Pure graph, batch 4, equal-length requests: every request is served
   through a multiplexed warm run and each demuxed output slice is
   exactly what per-request execution produces. *)
let test_batching_demux () =
  let g = pure_graph () in
  let bufs = Array.make n_requests (fun () -> [||]) in
  let config = Cgsim.Run_config.(with_batch 4 default) in
  let stats =
    Cgsim.Pool.run ~config ~domains:1 ~requests:n_requests ~io:(pool_io bufs) g
  in
  Alcotest.(check int) "all requests batched" n_requests stats.Cgsim.Pool.batched;
  check_scaled_outputs "batched" stats bufs;
  (* And the same requests served without batching agree. *)
  let bufs_cold = Array.make n_requests (fun () -> [||]) in
  let cold_cfg = Cgsim.Run_config.(with_warm false default) in
  let cold =
    Cgsim.Pool.run ~config:cold_cfg ~domains:1 ~requests:n_requests ~io:(pool_io bufs_cold) g
  in
  Alcotest.(check int) "cold path never batches" 0 cold.Cgsim.Pool.batched;
  check_scaled_outputs "cold" cold bufs_cold;
  Array.iteri
    (fun r buf ->
      Alcotest.(check (array (float 1e-6)))
        (Printf.sprintf "request %d batched == cold" r)
        (bufs_cold.(r) ()) (buf ()))
    bufs

(* Mismatched request lengths make a batch ineligible: the pool falls
   back to individual execution and still answers every request. *)
let test_batching_fallback_on_ragged_lengths () =
  let g = pure_graph () in
  let inputs = Array.init n_requests (fun r -> Array.init (4 + r) float_of_int) in
  let bufs = Array.make n_requests (fun () -> [||]) in
  let io r =
    let sink, contents = Cgsim.Io.f32_buffer () in
    bufs.(r) <- contents;
    [ Cgsim.Io.of_f32_array inputs.(r) ], [ sink ]
  in
  let config = Cgsim.Run_config.(with_batch 4 default) in
  let stats = Cgsim.Pool.run ~config ~domains:1 ~requests:n_requests ~io g in
  Alcotest.(check int) "ragged batch not multiplexed" 0 stats.Cgsim.Pool.batched;
  Array.iteri
    (fun r (res : Cgsim.Pool.request_result) ->
      (match res.Cgsim.Pool.outcome with
       | R.Completed _ -> ()
       | o -> Alcotest.failf "request %d: %a" r R.pp_outcome o);
      Alcotest.(check (array (float 1e-6)))
        (Printf.sprintf "request %d output" r)
        (Array.map (fun v -> 4.0 *. v) inputs.(r))
        (bufs.(r) ()))
    stats.Cgsim.Pool.results

(* A pure-but-stateful graph (prefix sum) must not be batched: each
   request's running sum has to start from zero. *)
let test_batching_requires_statelessness () =
  let g = prefix_sum_graph () in
  let bufs = Array.make n_requests (fun () -> [||]) in
  let config = Cgsim.Run_config.(with_batch 4 default) in
  let stats =
    Cgsim.Pool.run ~config ~domains:1 ~requests:n_requests ~io:(pool_io bufs) g
  in
  Alcotest.(check int) "pure-but-stateful never batched" 0 stats.Cgsim.Pool.batched;
  Array.iteri
    (fun r (res : Cgsim.Pool.request_result) ->
      (match res.Cgsim.Pool.outcome with
       | R.Completed _ -> ()
       | o -> Alcotest.failf "request %d: %a" r R.pp_outcome o);
      let acc = ref 0.0 in
      let expected =
        Array.map
          (fun v ->
            acc := !acc +. v;
            !acc)
          (request_input r)
      in
      Alcotest.(check (array (float 1e-6)))
        (Printf.sprintf "request %d prefix sum restarts at zero" r)
        expected (bufs.(r) ()))
    stats.Cgsim.Pool.results

(* A graph whose kernels never declared purity must not be batched even
   when the caller asks for it. *)
let test_batching_requires_purity () =
  let g = opaque_graph () in
  let bufs = Array.make n_requests (fun () -> [||]) in
  let config = Cgsim.Run_config.(with_batch 4 default) in
  let stats =
    Cgsim.Pool.run ~config ~domains:1 ~requests:n_requests ~io:(pool_io bufs) g
  in
  Alcotest.(check int) "unknown purity never batched" 0 stats.Cgsim.Pool.batched;
  Array.iteri
    (fun r (res : Cgsim.Pool.request_result) ->
      (match res.Cgsim.Pool.outcome with
       | R.Completed _ -> ()
       | o -> Alcotest.failf "request %d: %a" r R.pp_outcome o);
      Alcotest.(check (array (float 1e-6)))
        (Printf.sprintf "request %d identity output" r)
        (request_input r) (bufs.(r) ()))
    stats.Cgsim.Pool.results

(* Warm pool reuse across requests: after the first build per domain,
   requests are served from reset instances. *)
let test_warm_reuse_counts () =
  let g = pure_graph () in
  let bufs = Array.make n_requests (fun () -> [||]) in
  let stats = Cgsim.Pool.run ~domains:1 ~requests:n_requests ~io:(pool_io bufs) g in
  check_scaled_outputs "warm" stats bufs;
  Alcotest.(check bool) "at most one cold build" true (stats.Cgsim.Pool.cold_builds <= 1);
  Alcotest.(check int) "the rest are warm hits" (n_requests - stats.Cgsim.Pool.cold_builds)
    stats.Cgsim.Pool.warm_hits

(* The warm cache keys on every config field compilation reads: a request
   with auto_capacity on, after one with it off for the same graph, must
   get its own capacity-raised artifact, not the under-buffered one. *)
let test_cache_keys_auto_capacity () =
  let module G = Workloads.Sdf_gen in
  let case = G.generate ~defect:G.Under_capacity ~seed:7 () in
  let pool = Cgsim.Pool.create ~domains:1 () in
  let serve auto =
    let config =
      Cgsim.Run_config.(
        default |> with_lint `Off |> with_max_steps 10_000_000 |> with_auto_capacity auto)
    in
    let io _ =
      let sink, _ = Cgsim.Io.f32_buffer () in
      [ Cgsim.Io.of_f32_array case.G.c_input ], [ sink ]
    in
    (Cgsim.Pool.await (Cgsim.Pool.submit pool ~config ~io case.G.c_graph)).Cgsim.Pool.outcome
  in
  let plain = serve false in
  let rescued = serve true in
  Cgsim.Pool.shutdown pool;
  (match plain with
   | R.Completed s when s.Cgsim.Sched.cancelled = 0 ->
     Alcotest.fail "under-buffered graph completed without auto_capacity"
   | _ -> ());
  match rescued with
  | R.Completed s -> Alcotest.(check int) "auto_capacity run: no parked fiber" 0 s.Cgsim.Sched.cancelled
  | o -> Alcotest.failf "auto_capacity run: expected Completed, got %a" R.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Pool-owned cache and its compile key                               *)
(* ------------------------------------------------------------------ *)

(* Each pool owns its warm cache: a second pool over the same graph
   builds its first instance afresh instead of inheriting the idle
   instances the first pool parked. *)
let test_fresh_pool_starts_cold () =
  let g = pure_graph () in
  let serve () =
    let bufs = Array.make n_requests (fun () -> [||]) in
    let stats = Cgsim.Pool.run ~domains:1 ~requests:n_requests ~io:(pool_io bufs) g in
    check_scaled_outputs "served" stats bufs;
    stats
  in
  let first = serve () in
  let second = serve () in
  Alcotest.(check int) "first pool: one cold build" 1 first.Cgsim.Pool.cold_builds;
  Alcotest.(check int) "second pool: one cold build" 1 second.Cgsim.Pool.cold_builds;
  Alcotest.(check int) "second pool: the rest warm" (n_requests - 1) second.Cgsim.Pool.warm_hits

(* Every Run_config field, flipped away from [key_base], and whether it
   shapes the compiled artifact.  Each of the 16 fields appears once. *)
let key_base = Cgsim.Run_config.(default |> with_lint `Off |> with_max_steps 10_000_000)

let field_flips =
  let open Cgsim.Run_config in
  [
    "hooks", true, with_hooks { Cgsim.Hooks.none with around_body = (fun _ body -> body) };
    "queue_capacity", true, with_queue_capacity 64;
    "reference", true, with_reference true;
    "lint", true, with_lint `Warn;
    "deadline_ns", true, with_deadline_ms 60_000.;
    "max_steps", true, with_max_steps 20_000_000;
    "fuse", true, with_fuse false;
    "auto_capacity", true, with_auto_capacity true;
    "faults", true, with_faults (Cgsim.Faults.plan []);
    "retries", false, with_retries 3;
    "retry_base_ns", false, (fun c -> with_backoff ~base_ns:5e5 c);
    "retry_cap_ns", false, (fun c -> with_backoff ~cap_ns:5e7 c);
    "breaker_threshold", false, with_breaker 2;
    "seed", false, with_seed 99;
    "warm", false, with_warm false;
    "batch", false, with_batch 4;
  ]

(* Runtime.compile + run of one workload: outcome label and outputs. *)
let run_sdf_under_capacity config =
  let module G = Workloads.Sdf_gen in
  let case = G.generate ~defect:G.Under_capacity ~seed:7 () in
  let sink, contents = Cgsim.Io.buffer () in
  let inst = R.new_instance (R.compile ~config case.G.c_graph) in
  let o = R.run inst ~sources:[ Cgsim.Io.of_f32_array case.G.c_input ] ~sinks:[ sink ] in
  R.outcome_label o, contents ()

let run_bitonic config =
  let h = Apps.Harness.bitonic in
  let sinks, contents = h.Apps.Harness.make_sinks () in
  let inst = R.new_instance (R.compile ~config (h.Apps.Harness.graph ())) in
  let o = R.run inst ~sources:(h.Apps.Harness.sources ~reps:2) ~sinks in
  R.outcome_label o, contents ()

(* A key field must change the compile key; a Pool-only field must keep
   it and leave Runtime.compile + run bit-identical. *)
let test_compile_key_per_field () =
  Alcotest.(check int) "all 16 fields flipped" 16 (List.length field_flips);
  Alcotest.(check int) "each field once" 16
    (List.length (List.sort_uniq compare (List.map (fun (n, _, _) -> n) field_flips)));
  let workloads = [ "sdf under-capacity seed 7", run_sdf_under_capacity; "bitonic", run_bitonic ] in
  let baselines = List.map (fun (w, run) -> w, run, run key_base) workloads in
  List.iter
    (fun (name, shapes_artifact, flip) ->
      let flipped = flip key_base in
      let same = Cgsim.Run_config.same_compile_key key_base flipped in
      if shapes_artifact then Alcotest.(check bool) (name ^ " changes the key") false same
      else begin
        Alcotest.(check bool) (name ^ " changes the config") true (compare flipped key_base <> 0);
        Alcotest.(check bool) (name ^ " keeps the key") true same;
        List.iter
          (fun (w, run, (label, outputs)) ->
            let label', outputs' = run flipped in
            let msg = Printf.sprintf "%s flipped, %s" name w in
            Alcotest.(check string) (msg ^ ": outcome") label label';
            values_equal msg outputs outputs')
          baselines
      end)
    field_flips

let () =
  Alcotest.run "warm"
    [
      ( "reset-equivalence",
        [
          Alcotest.test_case "reset matches fresh (all apps, both modes)" `Quick
            test_reset_matches_fresh_all_apps;
          Alcotest.test_case "many reset cycles" `Quick test_reset_many_cycles;
          Alcotest.test_case "second run without reset rejected" `Quick
            test_reset_during_run_rejected;
        ] );
      ( "reset-faults",
        [
          Alcotest.test_case "fresh vs warm under seeded faults" `Quick
            test_reset_equivalence_under_faults;
          Alcotest.test_case "reset after Kernel_failed" `Quick test_reset_after_kernel_failed;
          Alcotest.test_case "reset after Max_steps" `Quick test_reset_after_max_steps;
        ] );
      ( "purity",
        [
          Alcotest.test_case "compiled_pure and batching_safe agree" `Quick
            test_compiled_purity_and_analysis;
        ] );
      ( "batching",
        [
          Alcotest.test_case "demux matches per-request execution" `Quick test_batching_demux;
          Alcotest.test_case "ragged lengths fall back" `Quick
            test_batching_fallback_on_ragged_lengths;
          Alcotest.test_case "pure-but-stateful never batched" `Quick
            test_batching_requires_statelessness;
          Alcotest.test_case "unknown purity never batched" `Quick test_batching_requires_purity;
          Alcotest.test_case "warm reuse counts" `Quick test_warm_reuse_counts;
          Alcotest.test_case "cache keys on auto_capacity" `Quick test_cache_keys_auto_capacity;
        ] );
      ( "pool-cache",
        [
          Alcotest.test_case "a fresh pool starts cold" `Quick test_fresh_pool_starts_cold;
          Alcotest.test_case "compile key per field" `Quick test_compile_key_per_field;
        ] );
    ]
