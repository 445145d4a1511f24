(* Spans recorded from the benchmark's own code around the calls into
   each layer, kept in memory and written out as Chrome trace-event JSON
   (the "X" complete-event form), so that spans recorded inside the
   program later can extend the same schema. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type event = {
  name : string;
  label : string;  (** which input the span served, or [""] *)
  start : float;  (** seconds, monotonic clock *)
  dur : float;  (** seconds *)
  self : float;  (** [dur] minus the time covered by child spans *)
  args : (string * float) list;  (** counters recorded inside the span *)
}

type frame = { mutable child : float; mutable fargs : (string * float) list }

type t = { mutable events : event list; mutable stack : frame list }

let create () = { events = []; stack = [] }

(** [span t name f] runs [f ()] inside a span named [name]. *)
let span ?(label = "") t name f =
  let frame = { child = 0.; fargs = [] } in
  t.stack <- frame :: t.stack;
  let start = now () in
  let finish () =
    let dur = now () -. start in
    t.stack <- List.tl t.stack;
    (match t.stack with parent :: _ -> parent.child <- parent.child +. dur | [] -> ());
    t.events <-
      { name; label; start; dur; self = dur -. frame.child; args = List.rev frame.fargs }
      :: t.events
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(** Record counter [key] = [v] on the innermost open span. *)
let count t key v =
  match t.stack with frame :: _ -> frame.fargs <- (key, v) :: frame.fargs | [] -> ()

let events t = List.rev t.events

(** Sum of [f e] over the events named [name]. *)
let sum t name f =
  List.fold_left (fun acc e -> if e.name = name then acc +. f e else acc) 0. t.events

(** Values of counter [key] on the events named [name]. *)
let counter t ~name key =
  List.concat_map
    (fun e -> if e.name = name then List.filter_map (fun (k, v) -> if k = key then Some v else None) e.args else [])
    t.events

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Write every event as Chrome trace-event JSON to [path]; timestamps
    are microseconds from the first event. *)
let write_chrome t path =
  let evs = events t in
  let origin = List.fold_left (fun acc e -> Float.min acc e.start) infinity evs in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
        (json_string e.name)
        ((e.start -. origin) *. 1e6)
        (e.dur *. 1e6)
        (String.concat ","
           ((if e.label = "" then [] else [ "\"input\":" ^ json_string e.label ])
           @ List.map (fun (k, v) -> Printf.sprintf "%s:%.17g" (json_string k) v) e.args)))
    evs;
  output_string oc "]}\n";
  close_out oc
