(* sim-long: the four paper apps as long cgsim simulations on one domain,
   then the fixed aiesim mix behind Table 1.

   Inputs are generated from the benchmark seed and checked against the
   scalar references in Workloads.Reference.  Each app is compiled once
   and its one instance is reset between runs; apps are interleaved
   round-robin so slow host phases hit all four alike. *)

module R = Cgsim.Runtime

type app = {
  name : string;
  blocks : int;  (* input blocks per run *)
  compiled : R.compiled;
  sources : unit -> Cgsim.Io.source list;
  sink : unit -> Cgsim.Io.sink * (unit -> bool);
      (** A fresh sink, and a check of what it collected against the
          scalar reference. *)
}

(* Blocks per run: about an eighth of a second of simulation each on a
   2-core x86 container, so a phase gathers many runs per app and the
   median of their rates rides out the host's speed swings. *)
let blocks_of = function
  | "bitonic" -> 8192
  | "farrow" -> 80
  | "iir" -> 64
  | "bilinear" -> 320
  | a -> invalid_arg a

let floats_equal ~tol expected actual =
  Array.length expected = Array.length actual
  && Array.for_all2
       (fun e a ->
         if tol = 0.0 then Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float a)
         else Float.abs (a -. e) <= tol +. (tol *. Float.abs e))
       expected actual

(* [corrupt] flips the check for the self-test of the failure gate. *)
let make_app ~seed ?(corrupt = false) name =
  let blocks = blocks_of name in
  let seed = (seed * 1_000_003) + Hashtbl.hash name in
  let f32_app ~expected ~tol =
    let expected = if corrupt then Array.map (fun x -> x +. 1.0) expected else expected in
    fun () ->
      let sink, read = Cgsim.Io.f32_buffer () in
      sink, fun () -> floats_equal ~tol expected (read ())
  in
  let int_app ~expected =
    let expected = if corrupt then Array.map succ expected else expected in
    fun () ->
      let sink, read = Cgsim.Io.int_buffer () in
      sink, fun () -> read () = expected
  in
  let graph, sources, sink =
    match name with
    | "bitonic" ->
      let lanes = Apps.Bitonic.lanes in
      let xs = Workloads.Signals.random_f32 ~seed (blocks * lanes) in
      let expected =
        Array.concat
          (List.init blocks (fun b -> Workloads.Reference.sort_f32 (Array.sub xs (b * lanes) lanes)))
      in
      ( Apps.Bitonic.graph (),
        (fun () -> [ Cgsim.Io.of_f32_array xs ]),
        f32_app ~expected ~tol:0.0 )
    | "farrow" ->
      let xs =
        Workloads.Signals.chirp_i16 ~seed ~amplitude:12000 (blocks * Apps.Farrow.samples_per_window)
      in
      let d = Apps.Farrow.default_d_q15 in
      let expected = Workloads.Reference.farrow_scalar ~d_q15:d xs in
      ( Apps.Farrow.graph (),
        (fun () ->
          [ Cgsim.Io.rtp (Cgsim.Value.Int d); Cgsim.Io.of_int_array Cgsim.Dtype.I16 xs ]),
        int_app ~expected )
    | "iir" ->
      let xs = Workloads.Signals.step_noise_f32 ~seed (blocks * Apps.Iir.samples_per_window) in
      let expected =
        Workloads.Reference.iir_scalar Workloads.Reference.iir_sections xs
      in
      (* Same tolerance as the harness: f32 matrix form vs f64 direct form. *)
      Apps.Iir.graph (), (fun () -> [ Cgsim.Io.of_f32_array xs ]), f32_app ~expected ~tol:2e-3
    | "bilinear" ->
      let image = Workloads.Images.synthetic ~width:256 ~height:256 in
      let quads = Workloads.Images.sample_quads ~seed image (blocks * Apps.Bilinear.quads_per_block) in
      let expected =
        Array.map
          (fun (q : Workloads.Images.quad) ->
            Workloads.Reference.bilinear_scalar ~p00:q.p00 ~p01:q.p01 ~p10:q.p10 ~p11:q.p11
              ~xf:q.xf ~yf:q.yf)
          quads
      in
      let values = Array.map Apps.Bilinear.quad_value quads in
      Apps.Bilinear.graph (), (fun () -> [ Cgsim.Io.of_array values ]), int_app ~expected
    | a -> invalid_arg a
  in
  let compiled = Spans.span "runtime.compile" (fun () -> R.compile graph) in
  { name; blocks; compiled; sources; sink }

let apps = [ "bitonic"; "farrow"; "iir"; "bilinear" ]

type app_result = {
  a_name : string;
  a_runs : int;
  a_failed : int;
  a_blocks_per_s : float;  (* median over runs *)
  a_kernel_share : float;
  a_slices_per_block : float;
  a_minor_words_per_block : float;
}

(* {1 The fixed aiesim mix: Table 1} *)

(* Table 1's "ours base"/"ours extr" columns, verbatim from
   EXPERIMENTS.md: the figures the aiesim runs must reproduce exactly. *)
let table1_expected () =
  let ic = open_in "EXPERIMENTS.md" in
  let rows = ref [] in
  let in_table = ref false in
  (try
     while true do
       let line = input_line ic in
       if String.length line >= 10 && String.sub line 0 10 = "## Table 1" then in_table := true
       else if !in_table && String.length line > 2 && String.sub line 0 2 = "##" then in_table := false
       else if !in_table && String.length line > 2 && line.[0] = '|' then
         match List.map String.trim (String.split_on_char '|' line) with
         | [ _; graph; _; _; _; _; base; extr; _; _ ] when graph <> "graph" && graph.[0] <> '-' ->
           rows := (String.lowercase_ascii graph, (base, extr)) :: !rows
         | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  if List.length !rows <> 4 then failwith "EXPERIMENTS.md: Table 1 rows not found";
  !rows

let table1_reps = 8

type aie_case = {
  h : Apps.Harness.t;
  label : string;
  deploy : Aiesim.Deploy.t;
  expected_ns : string;
}

let aiesim_cases () =
  let expected = table1_expected () in
  List.concat_map
    (fun (h : Apps.Harness.t) ->
      let base, extr = List.assoc h.name expected in
      let extracted =
        match Extractor.Project.extract_file (Filename.concat "examples/cgc" (h.name ^ ".cgc")) with
        | [ p ] -> Extractor.Project.deploy p
        | _ -> failwith ("extraction of " ^ h.name ^ " did not yield one graph")
      in
      [
        { h; label = "baseline"; deploy = Aiesim.Deploy.baseline (h.graph ()); expected_ns = base };
        { h; label = "extracted"; deploy = extracted; expected_ns = extr };
      ])
    Apps.Harness.all

(* Set-up as a user pays it: build and compile the four graphs and
   extract the four CGC deploys.  The seeded inputs and their references
   are made outside the timed region. *)
let time_setup () =
  let t0 = Util.now_s () in
  List.iter (fun (h : Apps.Harness.t) -> ignore (R.compile (h.graph ()))) Apps.Harness.all;
  ignore (aiesim_cases ());
  Util.now_s () -. t0

type setup = { apps : app list; cases : aie_case list }

let setup ~seed ?(corrupt = false) () =
  {
    apps = List.map (fun name -> make_app ~seed ~corrupt:(corrupt && name = "bitonic") name) apps;
    cases = aiesim_cases ();
  }

type aie_result = {
  setup_s : float;  (* median of one set-up timed per round *)
  host_speed : float;  (* from one kernel timing per round *)
  mix_s : float;  (* median host seconds per pass over the mix *)
  capture_ms : float;  (* median per pass *)
  replay_ms : float;
  trace_events : int;  (* per pass; must repeat exactly *)
  events_repeat : bool;
  aie_failed : int;
  aie_attempted : int;
}

(* Nominal host seconds of one round -- every app once, one pass over
   the aiesim mix and one timed set-up -- on a 2-core x86 container.  A phase's budget
   is turned into a fixed number of rounds, so the operation count, and
   with it the error bound, does not depend on how fast the host happens
   to be.  Interleaving the aiesim passes with the cgsim runs spreads
   both over the whole phase. *)
let round_s = 0.62

let rounds_for ~seconds = max 3 (int_of_float (Float.round (seconds /. round_s)))

(* One aiesim pass: every case once.  A case fails when its output
   differs from the scalar reference or its ns/block is not Table 1's
   figure.  Returns (host s, capture ms, replay ms, events, failed). *)
let aiesim_pass cases =
  List.fold_left
    (fun (total, cap, rep, ev, failed) c ->
      let sinks, contents = c.h.make_sinks () in
      let sources = c.h.sources ~reps:table1_reps in
      let t0 = Util.now_ns () in
      let r = Aiesim.Sim.run c.deploy ~sources ~sinks in
      let dt = (Util.now_ns () -. t0) /. 1e9 in
      let cap_ms = r.Aiesim.Sim.capture_stats.Cgsim.Sched.total_ns /. 1e6 in
      let ns = Printf.sprintf "%.1f" r.Aiesim.Sim.ns_per_block in
      let bad =
        match c.h.check ~reps:table1_reps (contents ()) with
        | Error e ->
          Util.log "aiesim %s %s: %s" c.h.name c.label e;
          1
        | Ok () when ns <> c.expected_ns ->
          Util.log "aiesim %s %s: ns/block %s, Table 1 says %s" c.h.name c.label ns c.expected_ns;
          1
        | Ok () -> 0
      in
      ( total +. dt,
        cap +. cap_ms,
        rep +. ((dt *. 1e3) -. cap_ms),
        ev + r.Aiesim.Sim.trace_events,
        failed + bad ))
    (0.0, 0.0, 0.0, 0, 0) cases

(* [rounds] rounds: each app runs once on its reset instance, then one
   aiesim pass, one timed set-up and one timing of the host-speed
   kernel. *)
let run ~rounds setup =
  let per_app =
    List.map
      (fun a ->
        a, Spans.span "runtime.new_instance" (fun () -> R.new_instance a.compiled), ref [], ref 0)
      setup.apps
  in
  let passes = ref [] and setups = ref [] and kernel = ref [] in
  let round = ref 0 in
  while !round < rounds do
    List.iter
      (fun (a, inst, runs, failed) ->
        if !round > 0 then Spans.span "runtime.reset" (fun () -> R.reset inst);
        let sources = a.sources () in
        let sink, check = a.sink () in
        let w0 = (Gc.quick_stat ()).Gc.minor_words in
        let t0 = Util.now_ns () in
        let outcome =
          Spans.span ("runtime.run." ^ a.name) (fun () -> R.run inst ~sources ~sinks:[ sink ])
        in
        let dt = Util.now_ns () -. t0 in
        let words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
        let fail why =
          Util.log "sim-long %s: %s" a.name why;
          incr failed
        in
        match outcome with
        | R.Completed st when st.Cgsim.Sched.cancelled = 0 ->
          if check () then runs := (st, dt, words) :: !runs
          else fail "output differs from the scalar reference"
        | R.Completed _ -> fail "stalled"
        | o -> fail (R.outcome_label o))
      per_app;
    passes := aiesim_pass setup.cases :: !passes;
    setups := time_setup () :: !setups;
    kernel := Util.kernel_ns () :: !kernel;
    incr round
  done;
  let apps =
    List.map
      (fun (a, _, runs, failed) ->
        let blocks = float_of_int a.blocks in
        let each f = Array.of_list (List.map f !runs) in
        let sum f = Array.fold_left ( +. ) 0.0 (each f) in
        {
          a_name = a.name;
          a_runs = !round;
          a_failed = !failed;
          a_blocks_per_s = Util.median (each (fun (_, dt, _) -> blocks /. (dt /. 1e9)));
          a_kernel_share =
            sum (fun (st, _, _) -> st.Cgsim.Sched.kernel_ns)
            /. sum (fun (st, _, _) -> st.Cgsim.Sched.total_ns);
          a_slices_per_block =
            sum (fun (st, _, _) -> float_of_int st.Cgsim.Sched.slices)
            /. (blocks *. float_of_int (max 1 (List.length !runs)));
          a_minor_words_per_block = Util.median (each (fun (_, _, w) -> w /. blocks));
        })
      per_app
  in
  let each f = Array.of_list (List.map f !passes) in
  let events = List.map (fun (_, _, _, ev, _) -> ev) !passes in
  ( apps,
    {
      setup_s = Util.median (Array.of_list !setups);
      host_speed = Util.host_speed (Array.of_list !kernel);
      mix_s = Util.median (each (fun (t, _, _, _, _) -> t));
      capture_ms = Util.median (each (fun (_, c, _, _, _) -> c));
      replay_ms = Util.median (each (fun (_, _, r, _, _) -> r));
      trace_events = List.hd events;
      events_repeat = List.for_all (( = ) (List.hd events)) events;
      aie_failed = List.fold_left (fun acc (_, _, _, _, f) -> acc + f) 0 !passes;
      aie_attempted = !round * List.length setup.cases;
    } )

(* {1 Vector-emulation micro figures (traced run)} *)

let per_call_ns ~iters f =
  Util.median
    (Array.init 5 (fun _ ->
         let t0 = Util.now_ns () in
         for _ = 1 to iters do
           ignore (Sys.opaque_identity (f ()))
         done;
         (Util.now_ns () -. t0) /. float_of_int iters))

let sort16_ns ~seed =
  let v = Workloads.Signals.random_f32 ~seed Apps.Bitonic.lanes in
  per_call_ns ~iters:2000 (fun () -> Apps.Bitonic.sort_vector v)

let fpmac8_ns ~seed =
  let a = Workloads.Signals.random_f32 ~seed 8 in
  let b = Workloads.Signals.random_f32 ~seed:(seed + 1) 8 in
  let c = Workloads.Signals.random_f32 ~seed:(seed + 2) 8 in
  per_call_ns ~iters:20000 (fun () -> Aie.Intrinsics.fpmac a b c)
