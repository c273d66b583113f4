(* serve-socket: an open-loop Poisson generator against a separate
   `cgx serve --domains 1` daemon over one Unix-socket connection.

   The generator is a single thread speaking Serve.Wire directly: it
   encodes and writes each request when it falls due, polls the socket
   between sends, and times every reply from the request's scheduled
   send time, so a stall also counts against the requests queued behind
   it.  It also records how late it sent each request; a step whose
   generator ran late beyond [lateness_bound_ms] is marked invalid. *)

let graph = "bitonic"
let blocks = 8
let lanes = Apps.Bitonic.lanes
let latency_limit_ms = 10.0
let lateness_bound_ms = 5.0

(* A request's payload and the reference output it must produce. *)
type payload = { input : Cgsim.Value.t list; expected : float array }

let make_payloads ~seed n =
  Array.init n (fun k ->
      let xs = Workloads.Signals.random_f32 ~seed:((seed * 7919) + k) (blocks * lanes) in
      let expected =
        Array.concat
          (List.init blocks (fun b -> Workloads.Reference.sort_f32 (Array.sub xs (b * lanes) lanes)))
      in
      { input = Array.to_list (Array.map (fun f -> Cgsim.Value.Float f) xs); expected })

let output_ok p = function
  | [ out ] ->
    List.length out = Array.length p.expected
    && List.for_all2
         (fun v e ->
           match v with
           | Cgsim.Value.Float f -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float e)
           | _ -> false)
         out (Array.to_list p.expected)
  | _ -> false

(* {1 The daemon} *)

type daemon = { pid : int; sock : string }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let rec connect_retry sock deadline =
  match connect sock with
  | Some fd -> fd
  | None ->
    if Util.now_s () > deadline then failwith ("daemon did not come up on " ^ sock);
    Unix.sleepf 0.002;
    connect_retry sock deadline

let spawn ~cgx ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cgx
      [| cgx; "serve"; "--listen"; "unix:" ^ sock; "--domains"; "1" |]
      null null null
  in
  Unix.close null;
  { pid; sock }

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now_s () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Util.now_s () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* {1 Framing over a non-blocking read side} *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  chunk : Bytes.t;
}

let conn fd = { fd; buf = Bytes.create 65536; len = 0; chunk = Bytes.create 65536 }

(* Read what is available (the caller has seen the fd readable) and
   return the complete frame payloads. *)
let read_frames c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then raise End_of_file;
  if c.len + n > Bytes.length c.buf then begin
    let bigger = Bytes.create (max (2 * Bytes.length c.buf) (c.len + n)) in
    Bytes.blit c.buf 0 bigger 0 c.len;
    c.buf <- bigger
  end;
  Bytes.blit c.chunk 0 c.buf c.len n;
  c.len <- c.len + n;
  let filled = Bytes.sub c.buf 0 c.len in
  let rec take pos acc =
    match Serve.Wire.unframe filled ~pos with
    | Ok (payload, next) -> take next (payload :: acc)
    | Error Serve.Wire.Truncated | Error Serve.Wire.Eof -> pos, List.rev acc
    | Error e -> failwith (Serve.Wire.frame_error_message e)
  in
  let consumed, frames = if c.len >= 4 then take 0 [] else 0, [] in
  if consumed > 0 then begin
    Bytes.blit c.buf consumed c.buf 0 (c.len - consumed);
    c.len <- c.len - consumed
  end;
  frames

let readable fd timeout =
  match Unix.select [ fd ] [] [] (Float.max 0.0 timeout) with
  | r, _, _ -> r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let encode_request ~id p =
  Spans.with_req id @@ fun () ->
  Spans.span "wire.encode_request" (fun () ->
      Serve.Wire.encode_request
        {
          Serve.Wire.q_id = id;
          q_body =
            Serve.Wire.Run
              { rq_graph = graph; rq_inputs = [ p.input ]; rq_deadline_ms = None; rq_seed = None };
        })

(* {1 One open-loop step} *)

type step = {
  rate : float;  (* nominal offered rate, req/s *)
  offered : float;  (* requests this step's draw offered, per second *)
  sent : int;
  ok : int;
  failed : int;
  wrong : int;  (* completed with wrong output *)
  lat_ms : float array;  (* successful requests, from scheduled send *)
  lateness_ms : float array;
  achieved : float;  (* successful completions per second of the step *)
  backlog_growing : bool;
  valid : bool;
  (* traced-run layer figures, one entry per successful request *)
  rtt_us : float array;
  server_us : float array;
  run_us : float array;
  req_bytes : int;
  reply_bytes : float array;
}

(* Exponential inter-arrival gaps (ns offsets from the step start). *)
let poisson ~prng ~rate ~duration_s =
  let acc = ref [] in
  let t = ref 0.0 in
  let horizon = duration_s *. 1e9 in
  let continue = ref true in
  while !continue do
    let u = Float.max 1e-12 (Workloads.Prng.float_unit prng) in
    t := !t +. (-.Float.log u /. rate *. 1e9);
    if !t < horizon then acc := !t :: !acc else continue := false
  done;
  Array.of_list (List.rev !acc)

let next_id = ref 1

let run_step c ~payloads ~prng ~rate ~duration_s =
  let offsets = poisson ~prng ~rate ~duration_s in
  let n = Array.length offsets in
  let t0 = Util.now_ns () +. 2e6 in
  let due = Array.map (fun o -> t0 +. o) offsets in
  let sent_at = Array.make n nan in
  let done_at = Array.make n nan in
  let server_ns = Array.make n nan in
  let run_ns = Array.make n nan in
  let reply_bytes = Array.make n nan in
  let status = Array.make n `Pending in
  let base = !next_id in
  next_id := !next_id + n;
  let req_bytes = ref 0 in
  let outstanding = ref 0 in
  let handle payload =
    let t = Util.now_ns () in
    match Spans.span "wire.decode_reply" (fun () -> Serve.Wire.decode_reply payload) with
    | Error _ -> ()
    | Ok { p_id; p_body } ->
      let i = p_id - base in
      if i >= 0 && i < n && status.(i) = `Pending then begin
        decr outstanding;
        done_at.(i) <- t;
        reply_bytes.(i) <- float_of_int (String.length payload + 4);
        match p_body with
        | Serve.Wire.Result r -> (
          server_ns.(i) <- r.rp_server_ns;
          run_ns.(i) <- r.rp_run_ns;
          match r.rp_outcome with
          | Serve.Wire.Completed outs ->
            status.(i) <-
              (if output_ok payloads.(i mod Array.length payloads) outs then `Ok else `Wrong)
          | _ -> status.(i) <- `Failed)
        | _ -> status.(i) <- `Failed
      end
  in
  let poll timeout =
    if readable c.fd timeout then List.iter handle (read_frames c)
  in
  let i = ref 0 in
  let drain_deadline = ref infinity in
  while !i < n || (!outstanding > 0 && Util.now_ns () < !drain_deadline) do
    let now = Util.now_ns () in
    if !i < n && now >= due.(!i) then begin
      let k = !i in
      let payload = encode_request ~id:(base + k) payloads.(k mod Array.length payloads) in
      req_bytes := String.length payload + 4;
      sent_at.(k) <- Util.now_ns ();
      Serve.Wire.write_frame c.fd payload;
      incr outstanding;
      incr i;
      if !i = n then drain_deadline := Util.now_ns () +. 5e9;
      poll 0.0
    end
    else begin
      let wait = if !i < n then (due.(!i) -. now) /. 1e9 else (!drain_deadline -. now) /. 1e9 in
      poll (Float.min wait 0.05)
    end
  done;
  let ok = ref [] and lat = ref [] and wrong = ref 0 and failed = ref 0 in
  let rtt = ref [] and srv = ref [] and run = ref [] and rb = ref [] in
  let last_done = ref t0 in
  for k = n - 1 downto 0 do
    match status.(k) with
    | `Ok ->
      ok := k :: !ok;
      lat := ((done_at.(k) -. due.(k)) /. 1e6) :: !lat;
      rtt := ((done_at.(k) -. sent_at.(k)) /. 1e3) :: !rtt;
      srv := (server_ns.(k) /. 1e3) :: !srv;
      run := (run_ns.(k) /. 1e3) :: !run;
      rb := reply_bytes.(k) :: !rb;
      if done_at.(k) > !last_done then last_done := done_at.(k)
    | `Wrong ->
      incr wrong;
      incr failed
    | `Failed | `Pending -> incr failed
  done;
  let lat_ms = Array.of_list !lat in
  let lateness_ms = Array.init n (fun k -> (sent_at.(k) -. due.(k)) /. 1e6) in
  let n_ok = List.length !ok in
  (* Achieved rate against the rate this Poisson draw actually offered. *)
  let span_s = Float.max duration_s ((!last_done -. t0) /. 1e9) in
  let achieved = float_of_int n_ok /. span_s in
  let offered = float_of_int n /. duration_s in
  (* Growing backlog: the last quarter of the step waits clearly longer
     than the first quarter. *)
  let backlog_growing =
    let q = Array.length lat_ms / 4 in
    q >= 5
    &&
    let first = Util.median (Array.sub lat_ms 0 q) in
    let last = Util.median (Array.sub lat_ms (Array.length lat_ms - q) q) in
    last > (2.0 *. first) +. 1.0
  in
  {
    rate;
    offered;
    sent = n;
    ok = n_ok;
    failed = !failed;
    wrong = !wrong;
    lat_ms;
    lateness_ms;
    achieved;
    backlog_growing;
    valid = n = 0 || Util.quantile lateness_ms 0.99 <= lateness_bound_ms;
    rtt_us = Array.of_list !rtt;
    server_us = Array.of_list !srv;
    run_us = Array.of_list !run;
    req_bytes = !req_bytes;
    reply_bytes = Array.of_list !rb;
  }

let p99 s = Util.quantile s.lat_ms 0.99

let passes s =
  s.valid && s.failed = 0 && s.ok > 0
  && p99 s <= latency_limit_ms
  && s.achieved >= 0.95 *. s.offered
  && not s.backlog_growing

(* One blocking request: daemon warm-up and the set-up probe. *)
let blocking_run c p =
  let id = !next_id in
  incr next_id;
  Serve.Wire.write_frame c.fd (encode_request ~id p);
  let rec wait () =
    if readable c.fd 5.0 then
      match read_frames c with
      | [] -> wait ()
      | payload :: _ -> (
        match Serve.Wire.decode_reply payload with
        | Ok { p_body = Serve.Wire.Result { rp_outcome = Serve.Wire.Completed outs; _ }; _ } ->
          output_ok p outs
        | _ -> false)
    else false
  in
  wait ()
