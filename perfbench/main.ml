(* One phase of the repository benchmark, in its own process.

     main.exe --phase sim|serve|churn --seed N --seconds S --trace 0|1
              --cgx PATH
     main.exe --self-check --cgx PATH

   perfbench/run.py runs a workload's phases as separate processes and
   composes their figures into the result line; this program prints one
   phase's figures as the last line of its standard output.  --trace 1 records spans around calls into each layer and
   reports the per-layer figures; --seconds is the phase's measuring
   time. *)

(* {1 Phase results} *)

type phase = {
  setup_s : float;
  attempted : int;
  failed : int;
  wrong : int;
  rss_mb : float;  (* serving process peak RSS, nan when it is this process *)
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
  headline_s : float;  (* a time that tracing should not inflate *)
}

let sim_phase ~seed ~seconds =
  let setup = Sim.setup ~seed () in
  let cgsim, aie =
    Sim.run ~rounds:(Sim.rounds_for ~seconds) setup
  in
  let app_metric prefix unit f = List.map (fun a -> prefix ^ a.Sim.a_name, f a, unit) cgsim in
  let failed = List.fold_left (fun acc a -> acc + a.Sim.a_failed) aie.Sim.aie_failed cgsim in
  let speed = aie.Sim.host_speed in
  {
    setup_s = aie.Sim.setup_s *. speed;
    attempted = List.fold_left (fun acc a -> acc + a.Sim.a_runs) aie.Sim.aie_attempted cgsim;
    failed;
    wrong = failed;
    rss_mb = nan;
    e2e =
      app_metric "cgsim_blocks_per_s." "1/s" (fun a -> a.Sim.a_blocks_per_s /. speed)
      @ [ "aiesim_s", aie.Sim.mix_s *. speed, "s" ];
    layers =
      [
        "host.speed.sim", speed, "ratio";
        "aie.sort16_ns", Sim.sort16_ns ~seed, "ns";
        "aie.fpmac8_ns", Sim.fpmac8_ns ~seed, "ns";
        "runtime.compile_us", Spans.median_us "runtime.compile", "us";
        "runtime.new_instance_us", Spans.median_us "runtime.new_instance", "us";
        "runtime.reset_us", Spans.median_us "runtime.reset", "us";
        "aiesim.capture_ms", aie.Sim.capture_ms, "ms";
        "aiesim.replay_ms", aie.Sim.replay_ms, "ms";
        "aiesim.trace_events", float_of_int aie.Sim.trace_events, "count";
        "aiesim.trace_events_repeat", (if aie.Sim.events_repeat then 1.0 else 0.0), "bool";
      ]
      @ app_metric "gc.minor_words_per_block." "words" (fun a -> a.Sim.a_minor_words_per_block)
      @ app_metric "sched.kernel_share." "ratio" (fun a -> a.Sim.a_kernel_share)
      @ app_metric "sched.slices_per_block." "count" (fun a -> a.Sim.a_slices_per_block)
      @ app_metric "runtime.run_us." "us" (fun a -> Spans.median_us ("runtime.run." ^ a.Sim.a_name));
    headline_s =
      Util.mean (Array.of_list (List.map (fun a -> speed /. a.Sim.a_blocks_per_s) cgsim));
  }

(* Rate ladder above r800: geometric rungs, climbed until one fails,
   then two bisections between the last passing and the first failing
   step.  r200 and r800 are the two lowest rungs. *)
let ladder = [ 1000.0; 1250.0; 1500.0; 1800.0; 2150.0; 2600.0; 3100.0; 3700.0 ]

let serve_phase ~cgx ~seed ~seconds =
  let sock = ".perfbench_run/cgx.sock" in
  let payloads = Serve_load.make_payloads ~seed 64 in
  (* Set-up: daemon spawn until the first successful run, nine times
     (median); the last daemon serves the measurement. *)
  let spawn_ready () =
    let t0 = Util.now_s () in
    let d = Serve_load.spawn ~cgx ~sock in
    let fd = Serve_load.connect_retry sock (t0 +. 30.0) in
    let c = Serve_load.conn fd in
    if not (Serve_load.blocking_run c payloads.(0)) then failwith "daemon: first request failed";
    d, c, Util.now_s () -. t0
  in
  let spawns = 9 in
  let setups =
    Array.init spawns (fun i ->
        let d, c, dt = spawn_ready () in
        if i < spawns - 1 then begin
          Unix.close c.Serve_load.fd;
          Serve_load.stop d
        end;
        d, c, dt)
  in
  let d, c, _ = setups.(spawns - 1) in
  let setup_s = Util.median (Array.map (fun (_, _, dt) -> dt) setups) in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close c.Serve_load.fd with Unix.Unix_error _ -> ());
      Serve_load.stop d)
    (fun () ->
      let prng = Workloads.Prng.create ~seed:((seed * 131) + 5) in
      let ran = ref [] in
      let step rate duration_s =
        let s = Serve_load.run_step c ~payloads ~prng ~rate ~duration_s in
        ran := s :: !ran;
        s
      in
      let r200 = step 200.0 (0.35 *. seconds) in
      let r800 = step 800.0 (0.25 *. seconds) in
      let rung_s = 0.4 *. seconds /. 8.0 in
      let rec climb best = function
        | [] -> best, None
        | rate :: rest ->
          let s = step rate rung_s in
          if Serve_load.passes s then climb s rest else best, Some s
      in
      (* The highest passing step so far and the first failing one. *)
      let best, first_fail =
        if not (Serve_load.passes r200) then None, None
        else if not (Serve_load.passes r800) then Some r200, Some r800
        else
          let b, f = climb r800 ladder in
          Some b, f
      in
      let rec bisect lo hi k =
        if k = 0 then lo
        else begin
          let s = step (Float.sqrt (lo.Serve_load.rate *. hi.Serve_load.rate)) rung_s in
          if Serve_load.passes s then bisect s hi (k - 1) else bisect lo s (k - 1)
        end
      in
      let max_rate =
        match best, first_fail with
        | Some b, Some f -> (bisect b f 2).Serve_load.achieved
        | Some b, None -> b.Serve_load.achieved
        | None, _ -> 0.0
      in
      let steps = [ r200; r800 ] in
      let cat f = Array.concat (List.map f steps) in
      let med f = Util.median (cat f) in
      let rtt = cat (fun s -> s.Serve_load.rtt_us) and srv = cat (fun s -> s.Serve_load.server_us) in
      let run = cat (fun s -> s.Serve_load.run_us) in
      let failed = r200.Serve_load.failed + r800.Serve_load.failed in
      let all = !ran in
      let total_ok = List.fold_left (fun acc s -> acc + s.Serve_load.ok) 0 all in
      let total_s =
        List.fold_left (fun acc s -> acc +. (float_of_int s.Serve_load.sent /. s.Serve_load.offered)) 0.0 all
      in
      let rss = Util.peak_rss_mb d.Serve_load.pid in
      {
        setup_s;
        attempted = r200.Serve_load.sent + r800.Serve_load.sent;
        failed;
        wrong = r200.Serve_load.wrong + r800.Serve_load.wrong;
        rss_mb = rss;
        e2e = [];
        (* Socket latency swings by more than the 25% a bound may be on
           a shared 2-core host (see README.md), so the serve figures are
           reported here, ungated, rather than as end-to-end metrics. *)
        layers =
          [
            "serve.lat_p50_ms.r200", Util.median r200.Serve_load.lat_ms, "ms";
            "serve.lat_p50_ms.r800", Util.median r800.Serve_load.lat_ms, "ms";
            "serve.lat_p99_ms.r200", Serve_load.p99 r200, "ms";
            "serve.lat_p99_ms.r800", Serve_load.p99 r800, "ms";
            "serve.max_rate_rps", max_rate, "1/s";
            "wire.encode_request_us", Spans.median_us "wire.encode_request", "us";
            "wire.decode_reply_us", Spans.median_us "wire.decode_reply", "us";
            "wire.request_bytes", float_of_int r200.Serve_load.req_bytes, "B";
            "wire.reply_bytes", med (fun s -> s.Serve_load.reply_bytes), "B";
            "serve.rtt_us", Util.median rtt, "us";
            "serve.server_us", Util.median srv, "us";
            "serve.run_us", Util.median run, "us";
            "serve.admit_queue_us", Util.median (Array.map2 ( -. ) srv run), "us";
            "serve.outside_server_us", Util.median (Array.map2 ( -. ) rtt srv), "us";
            "gen.lateness_p99_ms.r200", Util.quantile r200.Serve_load.lateness_ms 0.99, "ms";
            "gen.lateness_p99_ms.r800", Util.quantile r800.Serve_load.lateness_ms 0.99, "ms";
            "gen.achieved_ratio.r200", r200.Serve_load.achieved /. r200.Serve_load.offered, "ratio";
            "gen.achieved_ratio.r800", r800.Serve_load.achieved /. r800.Serve_load.offered, "ratio";
            ( "gen.invalid_steps",
              float_of_int (List.length (List.filter (fun s -> not s.Serve_load.valid) all)),
              "count" );
            "serve.completed_per_s", float_of_int total_ok /. total_s, "1/s";
          ];
        headline_s = Util.median r200.Serve_load.lat_ms /. 1e3;
      })

let churn_phase ~seed ~seconds =
  let cases = Churn.make_cases ~seed in
  let r = Churn.run ~seconds cases in
  let lint_us, fusion_us, capacity_us =
    if !Spans.on then Churn.analysis_us cases else 0.0, 0.0, 0.0
  in
  let warm_hit_ratio =
    float_of_int r.Churn.warm_hits /. float_of_int (max 1 (r.Churn.warm_hits + r.Churn.cold_builds))
  in
  let under_capacity_share = float_of_int r.Churn.under_capacity /. float_of_int r.Churn.attempted in
  Util.log "churn: req_per_s %.1f as measured, host speed %.4f" r.Churn.req_per_s r.Churn.host_speed;
  Util.log
    "churn: warm_hit_ratio %.4f under_capacity_share %.4f reference_mismatches %d lost %d failed %d of %d"
    warm_hit_ratio under_capacity_share r.Churn.mismatches r.Churn.lost r.Churn.failed
    r.Churn.attempted;
  {
    setup_s = r.Churn.setup_s;
    attempted = r.Churn.attempted;
    failed = r.Churn.failed;
    wrong = r.Churn.wrong;
    rss_mb = nan;
    e2e = [ "req_per_s", r.Churn.req_per_s /. r.Churn.host_speed, "1/s" ];
    layers =
      [
        "host.speed.churn", r.Churn.host_speed, "ratio";
        "pool.warm_hit_ratio", warm_hit_ratio, "ratio";
        "pool.compiles", float_of_int r.Churn.cold_builds, "count";
        "pool.queue_wait_us", r.Churn.queue_wait_us, "us";
        "pool.submit_us", r.Churn.submit_us, "us";
        "analysis.lint_us", lint_us, "us";
        "analysis.fusion_us", fusion_us, "us";
        "analysis.capacity_us", capacity_us, "us";
        "churn.reference_mismatches", float_of_int r.Churn.mismatches, "count";
        "churn.lost_completions", float_of_int r.Churn.lost, "count";
        "churn.stalls", float_of_int r.Churn.stalls, "count";
        "churn.refusals", float_of_int r.Churn.refusals, "count";
        "churn.under_capacity_share", under_capacity_share, "ratio";
      ];
    headline_s = r.Churn.host_speed /. r.Churn.req_per_s;
  }

(* {1 Phase output} *)

let phase_line ~name p =
  let kv l =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: [%s, %S]" n (Util.json_number v) u)
         l)
  in
  Printf.sprintf
    "{\"phase\": %S, \"setup_s\": %s, \"attempted\": %d, \"failed\": %d, \"wrong\": %d, \
     \"rss_mb\": %s, \"headline_s\": %s, \"host\": %s, \"e2e\": {%s}, \"layers\": {%s}}"
    name (Util.json_number p.setup_s) p.attempted p.failed p.wrong
    (Util.json_number (if Float.is_nan p.rss_mb then Util.peak_rss_mb 0 else p.rss_mb))
    (Util.json_number p.headline_s) (Util.host_stamp ()) (kv p.e2e) (kv p.layers)

let run_phase ~cgx ~seed ~seconds = function
  | "sim" -> sim_phase ~seed ~seconds
  | "serve" -> serve_phase ~cgx ~seed ~seconds
  | "churn" -> churn_phase ~seed ~seconds
  | p -> invalid_arg ("unknown phase " ^ p)

(* {1 Self-check: the failure gates count what they should} *)

let self_check () =
  let ok = ref true in
  let expect what cond =
    Util.log "self-check %-44s %s" what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  (* An injected wrong output is a failed operation. *)
  let setup = Sim.setup ~seed:1 ~corrupt:true () in
  let res, aie = Sim.run ~rounds:1 setup in
  let bitonic = List.find (fun a -> a.Sim.a_name = "bitonic") res in
  expect "wrong sim output counted as failed" (bitonic.Sim.a_failed = 1);
  expect "other apps pass their references"
    (List.for_all (fun a -> a.Sim.a_name = "bitonic" || a.Sim.a_failed = 0) res);
  (* An injected stall is a failed operation. *)
  let cases = Churn.make_cases ~seed:1 in
  let stalled = Churn.run ~seconds:0.2 ~inject_stall:true cases in
  expect "injected stall counted as failed"
    (stalled.Churn.mismatches >= 1 && stalled.Churn.stalls >= 1 && stalled.Churn.failed >= 1);
  expect "no wrong churn output" (stalled.Churn.wrong = 0);
  expect "Table 1 ns/block equal to EXPERIMENTS.md" (aie.Sim.aie_failed = 0);
  if !ok then Util.log "self-check passed" else exit 1

let () =
  let phase = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let cgx = ref "" and check = ref false in
  Arg.parse
    [
      "--phase", Arg.Set_string phase, "NAME sim, serve or churn";
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_float seconds, "S measuring time";
      "--trace", Arg.Set_int trace, "0|1 record per-layer spans";
      "--cgx", Arg.Set_string cgx, "PATH the cgx binary serving the daemon";
      "--self-check", Arg.Set check, " check that injected failures are counted";
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench phase runner";
  if !check then self_check ()
  else begin
    (try Unix.mkdir ".perfbench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Spans.on := !trace = 1;
    let p = run_phase ~cgx:!cgx ~seed:!seed ~seconds:!seconds !phase in
    if !Spans.on then Spans.write (Printf.sprintf ".perfbench_run/spans.%s.csv" !phase);
    List.iter (fun (n, v, u) -> Util.log "%-32s %14.6g %s" n v u) (p.e2e @ p.layers);
    print_endline (phase_line ~name:!phase p)
  end
