(* graph-churn: a closed loop from one submitting thread, with a bounded
   in-flight window, into an in-process Cgsim.Pool with one worker
   domain.

   Each request draws a seeded Sdf_gen graph by Zipf popularity and
   pairs it with a config varying the compile-relevant fields fuse,
   auto_capacity and lint.  There are more (graph, config) pairs than
   the pool's 8-entry compile cache holds, so the popular head hits and
   the tail misses.  Every result is compared with a fresh single-run
   reference computed at set-up. *)

module R = Cgsim.Runtime
module G = Workloads.Sdf_gen

(* The traffic's shape.  The one requirement is more (graph, config)
   pairs than the pool's compile cache holds, so that a popular head hits
   and the tail misses; README.md gives the basis of each number. *)

(* Entries of the pool's compile cache (Cgsim.Pool's LRU). *)
let cache_entries = 8

(* Popularity ranks.  Each rank has one clean and one Under_capacity
   graph, so there are as many graphs as cache entries: the graphs alone
   would fit, and the misses come from pairing them with configs. *)
let ranks = 4

(* Share of requests sent to an Under_capacity graph, drawn apart from
   popularity.  Sdf_gen.nth_case, the mix the differential fuzzer
   sweeps, has three clean cases for each Under_capacity one. *)
let under_capacity_share = 0.25

(* Requests in flight.  One leaves the worker idle while the submitter
   waits; from two on the rate levels off.  Four is twice that. *)
let window = 4

(* The config mix, most popular first: popularity falls with the number
   of compile-relevant fields changed from the base config, ties in the
   order fuse, auto_capacity, lint.  The base, first, is Run_config.default
   with lint off, since `Warn prints every finding to stderr.  auto_capacity
   is left out of the pool's cache key, so requests differing only there
   share a compiled artifact. *)
let configs =
  let base = Cgsim.Run_config.(default |> with_max_steps 10_000_000) in
  List.map
    (fun (fuse, auto, lint) ->
      Cgsim.Run_config.(base |> with_fuse fuse |> with_auto_capacity auto |> with_lint lint))
    [
      true, false, `Off;
      false, false, `Off;
      true, true, `Off;
      true, false, `Error;
      false, true, `Off;
      false, false, `Error;
      true, true, `Error;
      false, true, `Error;
    ]
  |> Array.of_list

(* On an Under_capacity graph the auto_capacity config completes and the
   base config, identical but for auto_capacity, deadlocks. *)
let rescuing_config = 2
let deadlocking_config = 0

(* Graph [2r] is rank r's clean graph, [2r + 1] its Under_capacity one. *)
let graph_index ~rank ~under_capacity = (2 * rank) + if under_capacity then 1 else 0

(* Zipf weights over [n] ranks, normalised. *)
let zipf n s =
  let w = Array.init n (fun r -> 1.0 /. Float.pow (float_of_int (r + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

(* Request share of the [cache_entries] most popular (graph, config)
   pairs when ranks and configs both follow Zipf(s). *)
let head_share s =
  let zr = zipf ranks s and zc = zipf (Array.length configs) s in
  let pairs =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun r -> List.map (fun c -> k *. zr.(r) *. c) (Array.to_list zc))
          (List.init ranks Fun.id))
      [ under_capacity_share; 1.0 -. under_capacity_share ]
    |> List.sort (fun a b -> Float.compare b a)
  in
  List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i < cache_entries) pairs)

(* The popularity exponent, solved so that the pairs an ideal cache
   would hold carry half the requests: as many hits as misses. *)
let exponent =
  let rec bisect lo hi n =
    if n = 0 then lo
    else
      let m = (lo +. hi) /. 2.0 in
      if head_share m < 0.5 then bisect m hi (n - 1) else bisect lo m (n - 1)
  in
  bisect 0.0 8.0 60

(* Outcome class: what a request is compared on. *)
type cls =
  | Output of float array  (* completed, nothing left parked *)
  | Stall  (* "completed" with fibers cancelled at quiescence *)
  | Refused of string  (* compile refused (lint `Error) or wiring error *)
  | Other of string

let classify outcome out =
  match outcome with
  | R.Completed st when st.Cgsim.Sched.cancelled = 0 -> Output out
  | R.Completed _ -> Stall
  | o -> Other (R.outcome_label o)

let same_output a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

type case = {
  graph : Cgsim.Serialized.t;
  input : float array;
  reference : cls array;  (* per config *)
}

let fresh_run config (c : G.case) =
  match R.compile ~config c.G.c_graph with
  | exception e -> Refused (Printexc.to_string e)
  | compiled -> (
    let sink, read = Cgsim.Io.f32_buffer () in
    match R.run (R.new_instance compiled) ~sources:[ Cgsim.Io.of_f32_array c.G.c_input ] ~sinks:[ sink ] with
    | exception e -> Refused (Printexc.to_string e)
    | outcome -> classify outcome (read ()))

(* The graphs and the order of the requests are fixed, the same for
   every seed: they set what a request costs and which requests miss the
   cache or meet the auto_capacity defect, so with them fixed a run's
   cost and failure count do not depend on its seed.  The graphs are
   those the benchmark's first seed drew.  The seed picks the data fed
   to each graph. *)
let graph_seed = 1
let traffic_seed = 1

let make_cases ~seed =
  Array.init (2 * ranks) (fun i ->
      let defect = if i mod 2 = 1 then Some G.Under_capacity else None in
      let c = G.generate ?defect ~seed:((graph_seed * 1009) + i) () in
      let prng = Workloads.Prng.create ~seed:((seed * 1009) + i) in
      let c =
        {
          c with
          G.c_input = Array.map (fun _ -> Workloads.Prng.float_range prng ~lo:(-1.0) ~hi:1.0) c.G.c_input;
        }
      in
      {
        graph = c.G.c_graph;
        input = c.G.c_input;
        reference = Array.map (fun config -> fresh_run config c) configs;
      })

(* Cumulative table of normalised weights. *)
let cdf w =
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc)
    w

let draw cdf prng =
  let u = Workloads.Prng.float_unit prng in
  let rec find i = if i >= Array.length cdf - 1 || u < cdf.(i) then i else find (i + 1) in
  find 0

type result = {
  setup_s : float;  (* median *)
  attempted : int;
  failed : int;
  wrong : int;  (* completed with outputs differing from the reference *)
  mismatches : int;  (* outcome class differs from the reference *)
  lost : int;  (* mismatches where the reference completed *)
  stalls : int;
  refusals : int;
  under_capacity : int;  (* requests sent to an Under_capacity graph *)
  req_per_s : float;  (* median chunk's, as measured *)
  host_speed : float;  (* from one kernel timing per chunk *)
  warm_hits : int;
  cold_builds : int;
  queue_wait_us : float;  (* median *)
  submit_us : float;  (* median *)
}

(* A run is a whole number of chunks of [chunk_requests] requests, one
   chunk per [chunk_s] of its measuring time, so that every run of a
   given length sends the same requests and meets the same failures.
   The rate is the median chunk's, which rides out the host's speed
   swings.  3600 requests a chunk is about 0.2 s at the 18000 req/s a
   2-core x86 container reaches. *)
let chunk_requests = 3600
let chunk_s = 0.2
let chunks ~seconds = max 1 (int_of_float (Float.round (seconds /. chunk_s)))

(* The host's speed, as the sim phase takes it (Util.host_speed), from
   a shorter run of the same kernel timed after every chunk, with the
   pool's worker domain up and idle.  Its nominal time is the reference
   host's in a quiet spell, timed as here; it is about twice the
   single-domain time, since every minor collection then stops both
   domains.  100 passes allocate about 5 MB, so the kernel adds little
   to the process's peak RSS.  README.md has the measurements. *)
let kernel_passes = 100
let nominal_kernel_ns = 1.1e6

(* Set-up as a user pays it: create a pool and serve a first request,
   a cold compile of a fixed graph that is not in the traffic.  The graph
   is generated afresh each time, so it misses the cache. *)
let setup_once () =
  let c = G.generate ~seed:1 () in
  let sink, _ = Cgsim.Io.f32_buffer () in
  let t0 = Util.now_s () in
  let pool = Spans.span "pool.create" (fun () -> Cgsim.Pool.create ~config:configs.(0) ~domains:1 ()) in
  let h =
    Cgsim.Pool.submit pool ~config:configs.(0)
      ~io:(fun _ -> [ Cgsim.Io.of_f32_array c.G.c_input ], [ sink ])
      c.G.c_graph
  in
  let r = Cgsim.Pool.await h in
  let dt = Util.now_s () -. t0 in
  Cgsim.Pool.shutdown pool;
  (match r.Cgsim.Pool.outcome with
   | R.Completed st when st.Cgsim.Sched.cancelled = 0 -> ()
   | o -> failwith ("churn set-up: first request ended " ^ R.outcome_label o));
  dt

(* The closed loop.  Before every chunk the in-flight requests are
   drained and one set-up is timed, so set-ups are spread over the whole
   phase and stay out of the chunks' times.

   [inject_stall], for the self-test, makes the first request one to the
   first Under_capacity graph with [deadlocking_config], while expecting
   the reference of [rescuing_config]. *)
let run ~seconds ?(inject_stall = false) cases =
  Cgsim.Pool.clear_warm_cache ();
  let pool = Cgsim.Pool.create ~config:configs.(0) ~domains:1 () in
  let prng = Workloads.Prng.create ~seed:((traffic_seed * 31) + 17) in
  let rank_cdf = cdf (zipf ranks exponent) in
  let config_cdf = cdf (zipf (Array.length configs) exponent) in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 and mismatches = ref 0 in
  let lost = ref 0 and stalls = ref 0 and refusals = ref 0 and under_capacity = ref 0 in
  let waits = Obs.Hdr.create () and submits = Obs.Hdr.create () in
  let setups = ref [] and rates = ref [] and kernel = ref [] in
  let injected = ref (not inject_stall) in
  let inflight = Queue.create () in
  let settle expected got =
    (match got, expected with
     | Output a, Output b -> if not (same_output a b) then incr wrong
     | _ -> ());
    let agree =
      match got, expected with
      | Output a, Output b -> same_output a b
      | Stall, Stall -> true
      | Refused _, Refused _ -> true
      | Other a, Other b -> String.equal a b
      | _ -> false
    in
    if not agree then begin
      incr mismatches;
      match expected with Output _ -> incr lost | _ -> ()
    end;
    (match got with Stall -> incr stalls | Refused _ -> incr refusals | _ -> ());
    match got with Output _ when agree -> () | _ -> incr failed
  in
  let finish (id, h, read, expected, submit_ns, done_ns) =
    let r = Spans.with_req id (fun () -> Spans.span "pool.await" (fun () -> Cgsim.Pool.await h)) in
    let got = classify r.Cgsim.Pool.outcome (read ()) in
    let d = Atomic.get done_ns in
    if not (Float.is_nan d) then
      Obs.Hdr.record waits (Float.max 0.0 (d -. submit_ns -. r.Cgsim.Pool.req_wall_ns));
    settle expected got
  in
  let drain () =
    Queue.iter finish inflight;
    Queue.clear inflight
  in
  let request () =
    let uc = Workloads.Prng.float_unit prng < under_capacity_share in
    let rank = draw rank_cdf prng in
    let ci = draw config_cdf prng in
    let g, ci, expected =
      let g = graph_index ~rank ~under_capacity:uc in
      if !injected then g, ci, cases.(g).reference.(ci)
      else begin
        injected := true;
        let g = graph_index ~rank:0 ~under_capacity:true in
        g, deadlocking_config, cases.(g).reference.(rescuing_config)
      end
    in
    let c = cases.(g) in
    incr attempted;
    if g mod 2 = 1 then incr under_capacity;
    let sink, read = Cgsim.Io.f32_buffer () in
    let done_ns = Atomic.make nan in
    let submit_ns = Util.now_ns () in
    match
      Spans.with_req !attempted @@ fun () ->
      Spans.span "pool.submit" (fun () ->
          Cgsim.Pool.submit pool ~config:configs.(ci)
            ~on_complete:(fun _ -> Atomic.set done_ns (Util.now_ns ()))
            ~io:(fun _ -> [ Cgsim.Io.of_f32_array c.input ], [ sink ])
            c.graph)
    with
    | exception e -> settle expected (Refused (Printexc.to_string e))
    | h ->
      Obs.Hdr.record submits (Util.now_ns () -. submit_ns);
      Queue.push (!attempted, h, read, expected, submit_ns, done_ns) inflight;
      if Queue.length inflight >= window then finish (Queue.pop inflight)
  in
  for _ = 1 to chunks ~seconds do
    setups := setup_once () :: !setups;
    let t0 = Util.now_s () in
    for _ = 1 to chunk_requests do
      request ()
    done;
    drain ();
    rates := (float_of_int chunk_requests /. (Util.now_s () -. t0)) :: !rates;
    (* Emptied first, the minor heap gives the kernel the same few
       megabytes each time. *)
    Gc.minor ();
    kernel := Util.kernel_ns ~passes:kernel_passes () :: !kernel
  done;
  let m = Spans.span "pool.metrics" (fun () -> Cgsim.Pool.metrics pool) in
  Cgsim.Pool.shutdown pool;
  let counter name =
    match List.find_opt (fun c -> c.Obs.Metrics.c_name = name) m.Obs.Metrics.counters with
    | Some c -> int_of_float c.Obs.Metrics.total
    | None -> 0
  in
  {
    setup_s = Util.median (Array.of_list !setups);
    attempted = !attempted;
    failed = !failed;
    wrong = !wrong;
    mismatches = !mismatches;
    lost = !lost;
    stalls = !stalls;
    refusals = !refusals;
    under_capacity = !under_capacity;
    req_per_s = Util.median (Array.of_list !rates);
    host_speed = Util.host_speed ~nominal_ns:nominal_kernel_ns (Array.of_list !kernel);
    warm_hits = counter "pool.warm_hit";
    cold_builds = counter "pool.cold";
    queue_wait_us = Obs.Hdr.quantile waits 0.5 /. 1e3;
    submit_us = Obs.Hdr.quantile submits 0.5 /. 1e3;
  }

(* Analysis passes per distinct graph (traced run). *)
let analysis_us cases =
  let time name f =
    Array.map (fun c -> Spans.span name (fun () -> ignore (f c.graph))) cases |> ignore;
    Spans.median_us name
  in
  ( time "analysis.lint" (fun g -> Analysis.Lint.run g),
    time "analysis.fusion" Analysis.Fusion.chains,
    time "analysis.capacity" Analysis.Capacity.suggest )
