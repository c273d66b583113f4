(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its calls into each
   layer's public functions (no instrumentation inside the libraries).
   Each span has a name, start, end, the span that caused it and the
   request it belongs to; they stay in memory, are folded into per-name
   figures when the run ends, and are written out for inspection.  Only the driving domain records
   spans, so no locking.  With tracing off, [span] is a direct call. *)

let on = ref false

type span = {
  name : string;
  start_ns : float;
  end_ns : float;
  parent : int;  (* index of the enclosing span, -1 at top level *)
  req : int;  (* request id, -1 outside a request *)
}

let spans : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let current_req = ref (-1)

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count

let span name f =
  if not !on then f ()
  else begin
    let idx = !count in
    (* Reserve the slot so children can name it as their parent. *)
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    push { name; start_ns = Util.now_ns (); end_ns = nan; parent; req = !current_req };
    stack := idx :: !stack;
    let finish () =
      stack := List.tl !stack;
      let s = !spans.(idx) in
      !spans.(idx) <- { s with end_ns = Util.now_ns () }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Spans recorded inside [f] carry request id [id]. *)
let with_req id f =
  if not !on then f ()
  else
  let saved = !current_req in
  current_req := id;
  Fun.protect ~finally:(fun () -> current_req := saved) f

(* Durations (ns) of every closed span of a name. *)
let durations name =
  let acc = ref [] in
  for i = !count - 1 downto 0 do
    let s = !spans.(i) in
    if String.equal s.name name && not (Float.is_nan s.end_ns) then
      acc := (s.end_ns -. s.start_ns) :: !acc
  done;
  Array.of_list !acc

let median_us name =
  let d = durations name in
  if Array.length d = 0 then 0.0 else Util.median d /. 1e3

(* Write every span out, one per line: name, start and end (ns since
   process start), parent index, request id. *)
let write path =
  let oc = open_out path in
  output_string oc "name,start_ns,end_ns,parent,req\n";
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%s,%.0f,%.0f,%d,%d\n" s.name s.start_ns s.end_ns s.parent s.req
  done;
  close_out oc
