(* Shared helpers: clock, order statistics, process memory, host stamp
   and number formatting for the phase line. *)

let now_ns = Obs.Clock.now_ns
let now_s () = now_ns () /. 1e9

let log fmt = Printf.eprintf ("[perfbench] " ^^ fmt ^^ "\n%!")

(* Quantile of unsorted samples, interpolating linearly between the
   closest ranks. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* VmHWM (peak resident set) of a process, in MiB, from /proc. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Host stamp: what a number has to be read against. *)
let calibration_ns =
  lazy
    (let loop () =
       let acc = ref 0 in
       let t0 = now_ns () in
       for i = 1 to 2_000_000 do
         acc := (!acc * 31) + i
       done;
       ignore (Sys.opaque_identity !acc);
       (now_ns () -. t0) /. 2_000_000.0
     in
     median (Array.init 5 (fun _ -> loop ())))

(* Host speed.  On the reference host the same code runs up to 1.6x
   faster or slower for spells of seconds to minutes, and the swings
   follow the memory system, not the core clock: an integer loop keeps
   its time while allocation-heavy OCaml code slows down together with
   every simulation.  So the sim phase times this fixed kernel --
   short-lived boxed floats, lists and closures, the kind of work the
   emulated vector code does -- once per round, and reports its timing
   metrics at the reference speed.  The kernel is the benchmark's own
   code: no change to the system under test alters it. *)
let kernel_ns ?(passes = 400) () =
  let t0 = now_ns () in
  let acc = ref 0.0 in
  for r = 1 to passes do
    let l = List.init 512 (fun i -> float_of_int (i + r)) in
    let m = List.map (fun x -> (x *. 1.5) +. 0.25) l in
    acc := !acc +. List.fold_left (fun a x -> if x > a then x else a +. 1e-9) 0.0 m
  done;
  ignore (Sys.opaque_identity !acc);
  now_ns () -. t0

(* The kernel's time on the reference host in a quiet spell, with
   OCaml's default minor heap. *)
let nominal_kernel_ns = 2.38e6

(* Speed of the host relative to the reference, from kernel timings
   taken through a phase: below 1 when it runs slow.  A throughput is
   divided by it and a time multiplied by it. *)
let host_speed ?(nominal_ns = nominal_kernel_ns) kernel_samples =
  nominal_ns /. median kernel_samples

let loadavg () =
  match open_in "/proc/loadavg" with
  | exception Sys_error _ -> nan
  | ic ->
    let v = try Scanf.sscanf (input_line ic) "%f" Fun.id with _ -> nan in
    close_in ic;
    v

let host_stamp () =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": %S, \"calibration_ns_per_iter\": %.6f, \"loadavg_1m\": %.2f}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (Lazy.force calibration_ns) (loadavg ())

let json_number v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v
