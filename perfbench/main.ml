(* perfbench: the repository's end-to-end benchmark.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   re-drives the pipeline stage by stage with spans (see Redrive) and
   reports the per-layer metrics.  Every output is checked.  The last
   line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics.  See README.md for the workloads and
   the metric definitions. *)

open Perfbench
module P = Dialegg.Pipeline

type workload = Paper_suite | Nmm_chain | Gen_corpus | Serve_mixed

let workloads =
  [
    ("paper-suite", Paper_suite);
    ("nmm-chain", Nmm_chain);
    ("gen-corpus", Gen_corpus);
    ("serve-mixed", Serve_mixed);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-suite|nmm-chain|gen-corpus|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

type args = { workload : workload; name : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest -> go ((flag, value) :: acc) rest
    | [ _ ] -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get flag = match List.assoc_opt flag kv with Some v -> v | None -> usage () in
  let int flag = match int_of_string_opt (get flag) with Some n -> n | None -> usage () in
  if List.exists (fun (f, _) -> not (List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace" ])) kv
  then usage ();
  let name = get "--workload" in
  let workload = match List.assoc_opt name workloads with Some w -> w | None -> usage () in
  let seconds = int "--seconds" and trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  { workload; name; seed = int "--seed"; seconds = float_of_int seconds; trace = trace = 1 }

let now = Span.now

(* ------------------------------------------------------------------ *)
(* Per-run state                                                       *)
(* ------------------------------------------------------------------ *)

(* Every run gets a fresh directory for the verdict cache, the daemon's
   socket and result cache, and temporary files, so no run sees state a
   previous run left behind.  Paths stay relative: a Unix socket path is
   limited to about 100 bytes. *)
let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let out_dir = "_perfbench"

let make_run_dir name =
  let d = Filename.concat out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  mkdir_p d;
  Unix.putenv "DIALEGG_VET_CACHE" (Filename.concat d "verdicts");
  Unix.putenv "DIALEGG_INJECT_FAULT" "";
  Unix.putenv "TMPDIR" d;
  Filename.set_temp_dir_name d;
  d

(* the shipped default configuration: on_limit = Fail, arena engine, -j1 *)
let config ~verdicts rules = { P.default_config with rules; vet_cache_dir = Some verdicts }

let describe_config () =
  let c = P.default_config in
  Printf.sprintf
    "config: on_limit=%s engine=%s jobs=%d max_iterations=%d max_nodes=%d timeout=%s \
     seminaive=%b backoff=%b match_limit=%d ban_length=%d lint=%b vet=%b audit=%b \
     validate=%b verify=%b dce=%b"
    (P.on_limit_name c.on_limit)
    (Egglog.Egraph.engine_to_string c.engine)
    c.jobs c.max_iterations c.max_nodes
    (match c.timeout with Some t -> Printf.sprintf "%gs" t | None -> "none")
    c.seminaive c.backoff c.match_limit c.ban_length c.lint c.vet c.audit c.validate c.verify
    c.run_dce

(* high-water resident set of [pid], from /proc *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> find ()
      in
      find ())

(* [pid] and every process it forked, transitively, from /proc *)
let rec process_tree pid =
  let task = Printf.sprintf "/proc/%d/task" pid in
  let children tid =
    match In_channel.with_open_text (Printf.sprintf "%s/%s/children" task tid) In_channel.input_all with
    | s -> List.filter_map int_of_string_opt (String.split_on_char ' ' s)
    | exception Sys_error _ -> []
  in
  let tids = try Array.to_list (Sys.readdir task) with Sys_error _ -> [] in
  pid :: List.concat_map process_tree (List.concat_map children tids)

(* the largest high-water resident set in [pid]'s process tree; a process
   that ends while it is read is skipped *)
let tree_peak_rss_mb pid =
  List.fold_left
    (fun acc p -> match peak_rss_mb p with v -> Float.max acc v | exception (Sys_error _ | End_of_file) -> acc)
    0. (process_tree pid)

(* Run [f] in a forked child and return the float it computes.  The child
   leaves with [Unix._exit] so it never runs the parent's exit work. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      match f () with
      | v ->
        let s = Printf.sprintf "%.17g" v in
        ignore (Unix.write_substring wr s 0 (String.length s));
        0
      | exception e ->
        prerr_endline ("perfbench: set-up failed: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let s = In_channel.input_all ic in
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "set-up child failed");
    float_of_string s

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
  mutable notes : string list;  (** human-readable lines *)
}

let fail (o : outcome) what =
  o.failed <- o.failed + 1;
  if o.failed <= 5 then prerr_endline ("perfbench: FAILED: " ^ what)

let metric (o : outcome) name value unit =
  o.metrics <- o.metrics @ [ (name, value, unit) ]

let note (o : outcome) fmt = Printf.ksprintf (fun s -> o.notes <- o.notes @ [ s ]) fmt

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result (o : outcome) =
  let correct = o.failed = 0 && o.attempted > 0 in
  List.iter print_endline o.notes;
  List.iter (fun (n, v, u) -> Printf.printf "%-26s %16.6f %s\n" n v u) o.metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string n)
              (json_number v) (Span.json_string u))
          o.metrics));
  correct

(* The end-to-end latency metrics from per-operation samples (seconds),
   latest first. *)
let latency_metrics o ~wall ~lat ~hit ~miss =
  let ms xs = List.map (fun x -> x *. 1000.) xs in
  let n = List.length lat in
  let ps, tail = Stats.block_tail (ms (List.rev lat)) in
  metric o "throughput_per_s" (float_of_int n /. wall) "ops/s";
  metric o "latency_ms_p50" (Stats.percentile 50. (ms lat)) "ms";
  metric o "latency_ms_tail" tail "ms";
  note o "latency_ms_tail is the median over %d blocks of %d consecutive operations (of %d) of each block's p%s"
    (max 1 (n / Stats.tail_block)) Stats.tail_block n
    (String.concat "/" (List.map (Printf.sprintf "%g") ps));
  (* an empty class reports the median of every operation *)
  let class_p50 name xs =
    let v = Stats.percentile 50. (ms (if xs = [] then lat else xs)) in
    metric o name v "ms";
    note o "%s over %d operations%s" name (List.length xs)
      (if xs = [] then " (none in this workload: reports latency_ms_p50)" else "")
  in
  class_p50 "hit_latency_ms_p50" hit;
  class_p50 "miss_latency_ms_p50" miss;
  metric o "success_rate"
    (float_of_int (o.attempted - o.failed) /. float_of_int (max 1 o.attempted))
    "ratio"

(* One report line per input (per shape for gen cases), as the per-program
   rows behind the aggregate latency. *)
let group label =
  match String.rindex_opt label '-' with
  | Some i when int_of_string_opt (String.sub label (i + 1) (String.length label - i - 1)) <> None ->
    String.sub label 0 i
  | _ -> label

let per_input o tbl =
  List.iter
    (fun g ->
      let xs = List.map (fun x -> x *. 1000.) (Hashtbl.find_all tbl g) in
      note o "  %-18s %6d operations, p50 %9.3f ms" g (List.length xs) (Stats.percentile 50. xs))
    (List.sort_uniq compare (Hashtbl.fold (fun g _ acc -> g :: acc) tbl []))

(* ------------------------------------------------------------------ *)
(* Compile workloads: Pipeline.optimize_source in process              *)
(* ------------------------------------------------------------------ *)

(* Set-up time: the median of [setup_samples] cold set-ups, each in a
   child forked before the benchmark warms anything (prelude, verdict
   memos), so that every sample starts cold. *)
let setup_samples = 41

let setup_metric o sample =
  let xs = List.init setup_samples (fun k -> in_child (fun () -> sample k)) in
  metric o "setup_s" (Stats.median xs) "s";
  note o "setup_s is the median of %d cold set-ups" setup_samples

(* Checks outputs, verifying each distinct (input, output) pair once:
   an output byte-identical to one already verified for the same input
   needs no second interpretation.  Without [remember] (inputs that never
   repeat) nothing is kept, so the checker does not grow the benchmark
   process's memory with the number of operations. *)
type checker = {
  remember : bool;
  verified : (string, Digest.t) Hashtbl.t;
  ratios : (string, float) Hashtbl.t;
}

let checker ~remember = { remember; verified = Hashtbl.create 64; ratios = Hashtbl.create 64 }

let check_output ck o ~seed (input : Inputs.input) out =
  let digest = Digest.string out in
  if Hashtbl.find_opt ck.verified input.label <> Some digest then
    match Checks.check input ~seed ~out with
    | Ok ratio ->
      if ck.remember then Hashtbl.replace ck.verified input.label digest;
      Option.iter (Hashtbl.replace ck.ratios input.label) ratio
    | Error e -> fail o e

let optimize ~verdicts (input : Inputs.input) =
  let out, report = P.optimize_source ~config:(config ~verdicts input.rules) input.src in
  if not (P.report_clean report) then raise (P.Error (input.label ^ ": a function degraded"));
  out

(* A compile workload as a sequence of whole passes.  paper-suite and
   nmm-chain: the fixed input set in a seeded order per pass, all on one
   prewarmed verdict cache.  gen-corpus: the seed's cases in slices of
   [gen_pass], no index repeating, each slice on a fresh verdict cache.
   Every gen case writes its verdicts, and each write prunes the cache
   directory, so a case costs more the more entries precede it.  A fresh
   cache per slice gives every slice the same cache-size profile, so a
   run's figures do not depend on how many slices fit in it, that is on
   how fast the optimizer is. *)
type compile = { pass : int -> Inputs.input list; fresh_cache : bool; ratio_labels : string list }

(* one gen-corpus pass, which is one block of the tail metric;
   code_cycles_ratio is taken over the first *)
let gen_pass = Stats.tail_block

(* peak_rss_mb is read at the end of the first pass that brings the run
   to [rss_ops] operations, and the loop runs at least that far: the
   verdict memos grow with every new ruleset, so on gen-corpus the high
   water keeps rising, and a reading at the end of the run would rise
   with the number of operations that fit in it *)
let rss_ops = 600

let compile_workload ~seed = function
  | Gen_corpus ->
    {
      pass = (fun p -> List.init gen_pass (fun k -> Inputs.gen_case ~seed ((p * gen_pass) + k)));
      fresh_cache = true;
      ratio_labels = List.init gen_pass (fun i -> (Inputs.gen_case ~seed i).label);
    }
  | w ->
    let inputs = Array.of_list (if w = Paper_suite then Inputs.paper_suite () else Inputs.nmm_chain ()) in
    let n = Array.length inputs in
    {
      pass = (fun round -> Array.to_list (Array.map (fun i -> inputs.(i)) (Inputs.round_order ~seed ~round n)));
      fresh_cache = false;
      ratio_labels = Array.to_list (Array.map (fun (i : Inputs.input) -> i.label) inputs);
    }

(* the verdict cache directory of pass [p] *)
let pass_verdicts ~run_dir wl p =
  Filename.concat run_dir (if wl.fresh_cache then Printf.sprintf "verdicts-%d" p else "verdicts")

(* code_cycles_ratio: the geometric mean over input groups (one per paper
   benchmark or chain, one per gen shape) of each group's geometric mean
   ratio, so that a seed's mix of shapes does not move it *)
let cycles_metric o ratios labels =
  let rs = List.filter_map (fun l -> Option.map (fun r -> (group l, r)) (Hashtbl.find_opt ratios l)) labels in
  if rs = [] then fail o "no output yielded a cycle ratio"
  else begin
    let groups = List.sort_uniq compare (List.map fst rs) in
    let per_group g = Stats.geomean (List.filter_map (fun (g', r) -> if g = g' then Some r else None) rs) in
    metric o "code_cycles_ratio" (Stats.geomean (List.map per_group groups)) "ratio";
    note o "code_cycles_ratio is over %d programs in %d groups" (List.length rs) (List.length groups)
  end

let compile_rulesets w =
  match w with
  | Paper_suite -> List.sort_uniq compare (List.map (fun (i : Inputs.input) -> i.rules) (Inputs.paper_suite ()))
  | Nmm_chain -> [ Dialegg.Rules.matmul_assoc ]
  | _ -> [ "" ]

(* warm the verdict memos and the prelude, as a long-running caller would *)
let prewarm ~verdicts w =
  List.iter (fun rules -> ignore (P.prewarmed (config ~verdicts rules) : P.config)) (compile_rulesets w)

(* One set-up sample for a compile workload: the cold lint / vet / audit
   tiers of every ruleset it uses and the prelude parse, with its own
   verdict cache. *)
let compile_setup ~run_dir w k =
  let t0 = now () in
  prewarm ~verdicts:(Filename.concat run_dir (Printf.sprintf "setup-%d" k)) w;
  now () -. t0

let run_compile a ~run_dir o =
  setup_metric o (compile_setup ~run_dir a.workload);
  let wl = compile_workload ~seed:a.seed a.workload in
  prewarm ~verdicts:(pass_verdicts ~run_dir wl 0) a.workload;
  let ck = checker ~remember:(not wl.fresh_cache) in
  (* [aside]: time spent making inputs, checking outputs and clearing
     caches, left out of the loop time.  Outputs are checked after each
     pass.  On gen-corpus every output is checked by interpreter runs that
     allocate much, so each pass starts with a full major collection:
     otherwise the next pass's optimizer calls would collect the
     benchmark's garbage, and those calls would land in the tail. *)
  let lat = ref [] and aside = ref 0. and pass = ref 0 in
  let off_clock f =
    let c0 = now () in
    let v = f () in
    aside := !aside +. (now () -. c0);
    v
  in
  let by_input = Hashtbl.create 8 in
  let t_start = now () in
  let loop_time () = now () -. t_start -. !aside in
  let rss = ref None in
  while !rss = None || loop_time () < a.seconds do
    let verdicts = pass_verdicts ~run_dir wl !pass in
    let inputs =
      off_clock (fun () ->
          let inputs = wl.pass !pass in
          if wl.fresh_cache then Gc.full_major ();
          inputs)
    in
    let results =
      List.map
        (fun (input : Inputs.input) ->
          o.attempted <- o.attempted + 1;
          let t0 = now () in
          let result = try Ok (optimize ~verdicts input) with e -> Error (Printexc.to_string e) in
          let dt = now () -. t0 in
          lat := dt :: !lat;
          Hashtbl.add by_input (group input.label) dt;
          (input, result))
        inputs
    in
    off_clock (fun () ->
        List.iter
          (fun ((input : Inputs.input), result) ->
            match result with
            | Ok out -> check_output ck o ~seed:a.seed input out
            | Error e -> fail o (input.label ^ ": " ^ e))
          results;
        if wl.fresh_cache then remove_tree verdicts);
    if !rss = None && o.attempted >= rss_ops then rss := Some (peak_rss_mb (Unix.getpid ()));
    incr pass
  done;
  let wall = loop_time () in
  note o "%d passes" !pass;
  latency_metrics o ~wall ~lat:!lat ~hit:[] ~miss:!lat;
  per_input o by_input;
  cycles_metric o ck.ratios wl.ratio_labels;
  metric o "peak_rss_mb" (Option.get !rss) "MB";
  note o "peak_rss_mb is read after the first %d operations" rss_ops

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let stage_layers =
  [ "parser"; "validate"; "lint"; "vet"; "audit"; "prelude"; "rules"; "sigs"; "eggify";
    "saturate"; "extract"; "deeggify"; "printer" ]

(* Untraced and traced optimization of each input, alternating which
   goes first; the traced output must be byte-identical. *)
type traced = { tr : Span.t; mutable ops : int; mutable untraced_s : float }

let traced () = { tr = Span.create (); ops = 0; untraced_s = 0. }

let trace_one t o ~verdicts ~first_untraced ?expect (input : Inputs.input) =
  o.attempted <- o.attempted + 1;
  let untraced () =
    let t0 = now () in
    let r = try Ok (optimize ~verdicts input) with e -> Error (Printexc.to_string e) in
    t.untraced_s <- t.untraced_s +. (now () -. t0);
    r
  in
  let traced () =
    try Ok (Redrive.optimize_source ~label:input.label t.tr (config ~verdicts input.rules) input.src)
    with e -> Error (Printexc.to_string e)
  in
  let u, tr =
    if first_untraced then
      let u = untraced () in
      (u, traced ())
    else
      let tr = traced () in
      (untraced (), tr)
  in
  t.ops <- t.ops + 1;
  match (u, tr) with
  | Ok u, Ok tr when u = tr && (expect = None || expect = Some u) -> Some u
  | Ok _, Ok _ -> fail o (input.label ^ ": traced, untraced and expected outputs differ"); None
  | Error e, _ | _, Error e -> fail o (input.label ^ ": " ^ e); None

let layer_metrics t o =
  let n = float_of_int (max 1 t.ops) in
  let tr = t.tr in
  List.iter
    (fun l -> metric o (l ^ ".ms") (Span.sum tr l (fun e -> e.Span.self) *. 1000. /. n) "ms")
    stage_layers;
  let csum name key = List.fold_left ( +. ) 0. (Span.counter tr ~name key) in
  let cmean name key =
    match Span.counter tr ~name key with [] -> 0. | xs -> csum name key /. float_of_int (List.length xs)
  in
  List.iter
    (fun k -> metric o ("saturate." ^ k) (csum "saturate" k /. n) "ms")
    [ "search_ms"; "apply_ms"; "rebuild_ms" ];
  metric o "saturate.iterations" (csum "saturate" "iterations" /. n) "count";
  metric o "saturate.matches" (csum "saturate" "matches" /. n) "count";
  let matches = csum "saturate" "matches" in
  metric o "saturate.applied_ratio"
    (if matches > 0. then csum "saturate" "applied" /. matches else 0.)
    "ratio";
  metric o "saturate.peak_nodes"
    (List.fold_left Float.max 0. (Span.counter tr ~name:"saturate" "peak_nodes"))
    "count";
  metric o "extract.classes" (csum "extract" "classes" /. n) "count";
  metric o "eggify.nodes" (csum "eggify" "nodes" /. n) "count";
  metric o "vet.memo_hit_ratio" (cmean "vet" "memo_hit") "ratio";
  metric o "audit.memo_hit_ratio" (cmean "audit" "memo_hit") "ratio";
  let op_wall = Span.sum tr "op" (fun e -> e.Span.dur) in
  let gaps = Span.sum tr "op" (fun e -> e.Span.self) +. Span.sum tr "func" (fun e -> e.Span.self) in
  let coverage = if op_wall > 0. then 1. -. (gaps /. op_wall) else 0. in
  if coverage < 0.95 then fail o (Printf.sprintf "spans cover only %.1f%% of the traced wall" (coverage *. 100.));
  metric o "trace.coverage" coverage "ratio";
  metric o "trace.overhead_ms" ((op_wall -. t.untraced_s) *. 1000. /. n) "ms"

(* The serve layers' metrics from the request samples (round trip,
   daemon-side seconds) and the daemon's counters; a compile workload
   does not reach these layers and reports 0. *)
let serve_metrics o ?(served = []) ?stats () =
  let med f = if served = [] then 0. else Stats.median (List.map (fun s -> f s *. 1000.) served) in
  let count f = match stats with Some s -> float_of_int (f s) | None -> 0. in
  List.iter
    (fun (n, v, u) -> metric o n v u)
    Serve.Protocol.
      [
        ("serve.rtt_ms", med fst, "ms");
        ("serve.daemon_ms", med snd, "ms");
        ("serve.transport_ms", med (fun (rtt, d) -> rtt -. d), "ms");
        ("cache.hit_ratio", (match stats with Some s -> hit_rate s | None -> 0.), "ratio");
        ("cache.hits_mem", count (fun s -> s.ds_hits_mem), "count");
        ("cache.hits_disk", count (fun s -> s.ds_hits_disk), "count");
        ("cache.misses", count (fun s -> s.ds_misses), "count");
        ("admission.shed", count (fun s -> s.ds_shed), "count");
        ("daemon.errors", count (fun s -> s.ds_errors), "count");
        ("worker.respawns", count (fun s -> s.ds_respawns), "count");
      ]

let write_trace a t =
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s.json" a.name) in
  Span.write_chrome t.tr path;
  path

let trace_compile a ~run_dir o =
  let wl = compile_workload ~seed:a.seed a.workload in
  prewarm ~verdicts:(pass_verdicts ~run_dir wl 0) a.workload;
  let ck = checker ~remember:(not wl.fresh_cache) in
  let t = traced () in
  let t_start = now () and pass = ref 0 in
  while !pass = 0 || now () -. t_start < a.seconds do
    let verdicts = pass_verdicts ~run_dir wl !pass in
    List.iter
      (fun (input : Inputs.input) ->
        match trace_one t o ~verdicts ~first_untraced:(t.ops mod 2 = 0) input with
        | Some out -> check_output ck o ~seed:a.seed input out
        | None -> ())
      (wl.pass !pass);
    if wl.fresh_cache then remove_tree verdicts;
    incr pass
  done;
  layer_metrics t o;
  serve_metrics o ();
  note o "traced %d operations in %d passes; spans in %s" t.ops !pass (write_trace a t)

(* ------------------------------------------------------------------ *)
(* serve-mixed: Serve.Client against a forked Serve.Daemon             *)
(* ------------------------------------------------------------------ *)

let serve_rules = Dialegg.Rules.matmul_assoc

let daemon_config ~run_dir ~cache =
  {
    Serve.Daemon.default_config with
    socket_path = Filename.concat run_dir "d.sock";
    pool = min 2 (Domain.recommended_domain_count ());
    cache_dir = Some (Filename.concat run_dir cache);
    pipeline = config ~verdicts:(Filename.concat run_dir (cache ^ "-verdicts")) serve_rules;
  }

let describe_daemon (c : Serve.Daemon.config) =
  Printf.sprintf
    "daemon: pool=%d max_queue=%d retries=%d job_timeout=%gs heartbeat=%gs recycle_jobs=%d \
     cache_capacity=%d disk_cache=%b"
    c.pool c.max_queue c.retries c.job_timeout c.heartbeat c.recycle_jobs c.cache_capacity
    (c.cache_dir <> None)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* Fork a daemon on a fresh cache and return (pid, seconds until it
   answers a ping). *)
let start_daemon cfg =
  flush_all ();
  let t0 = now () in
  match Unix.fork () with
  | 0 ->
    (try Serve.Daemon.run cfg
     with e -> prerr_endline ("perfbench: daemon: " ^ Printexc.to_string e));
    Unix._exit 0
  | pid ->
    let rec await tries =
      let up =
        match Serve.Client.connect cfg.Serve.Daemon.socket_path with
        | c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> Serve.Client.ping c)
        | exception Serve.Client.Error _ -> false
      in
      if up then now () -. t0
      else if tries = 0 then (stop_daemon pid; failwith "the daemon did not come up")
      else (Unix.sleepf 0.0005; await (tries - 1))
    in
    (pid, await 20_000)

(* One set-up sample for serve-mixed: a cold daemon start on its own
   socket and cache, stopped once it answers. *)
let serve_setup ~run_dir k =
  let cfg = daemon_config ~run_dir ~cache:(Printf.sprintf "setup-%d" k) in
  let pid, dt = start_daemon { cfg with socket_path = Filename.concat run_dir "setup.sock" } in
  stop_daemon pid;
  dt

type serve_run = {
  first : (int, Inputs.request * string) Hashtbl.t;  (** first reply per source *)
  mutable lat : float list;
  mutable hit : float list;
  mutable miss : float list;
  mutable served : (float * float) list;  (** round trip, daemon-side seconds *)
  mutable wall : float;
  mutable peak_rss_mb : float;  (** daemon and its workers *)
}

(* The closed loop: one client, one connection, a request sent only after
   the previous reply.  Sheds are not retried: they count as failures.
   Misses run in workers the daemon forks, and it replaces a worker after
   [recycle_jobs] jobs, so the high-water RSS of the daemon and its
   workers is read after every miss, off the loop's clock. *)
let serve_loop a o ?tr ~daemon sock =
  let next = Inputs.serve_stream ~seed:a.seed in
  let r =
    { first = Hashtbl.create 256; lat = []; hit = []; miss = []; served = []; wall = 0.; peak_rss_mb = 0. }
  in
  let read_rss () = r.peak_rss_mb <- Float.max r.peak_rss_mb (tree_peak_rss_mb daemon) in
  Serve.Client.with_connection sock (fun c ->
      let t_start = now () and aside = ref 0. in
      let loop_time () = now () -. t_start -. !aside in
      while loop_time () < a.seconds do
        let req = next () in
        o.attempted <- o.attempted + 1;
        let call () = Serve.Client.optimize ~retries:0 c req.rsrc in
        let t0 = now () in
        let reply =
          match tr with
          | Some tr ->
            Span.span ~label:req.rlabel tr "request" (fun () ->
                let reply = try Ok (call ()) with Serve.Client.Error e -> Error e in
                Result.iter
                  (fun rp -> Span.count tr "daemon_ms" (rp.Serve.Protocol.sv_latency_s *. 1000.))
                  reply;
                reply)
          | None -> ( try Ok (call ()) with Serve.Client.Error e -> Error e)
        in
        let dt = now () -. t0 in
        r.lat <- dt :: r.lat;
        match reply with
        | Error e -> fail o (req.rlabel ^ ": " ^ e)
        | Ok rp ->
          r.served <- (dt, rp.sv_latency_s) :: r.served;
          if List.for_all (fun (_, m) -> m <> Serve.Protocol.Sv_miss) rp.sv_marks then r.hit <- dt :: r.hit
          else begin
            r.miss <- dt :: r.miss;
            let c0 = now () in
            read_rss ();
            aside := !aside +. (now () -. c0)
          end;
          if rp.sv_degraded > 0 then fail o (req.rlabel ^ ": a function degraded")
          else (
            match Hashtbl.find_opt r.first req.id with
            | None -> Hashtbl.replace r.first req.id (req, rp.sv_output)
            | Some (_, out) ->
              if out <> rp.sv_output then fail o (req.rlabel ^ ": replies differ between requests"))
      done;
      r.wall <- loop_time ());
  read_rss ();
  r

(* Byte identity of every distinct source's reply with an in-process
   optimize_source (traced as well under --trace 1), and the cycle ratio
   over the stream's initial pool. *)
let serve_verify a o ~run_dir ?t (r : serve_run) =
  let verdicts = Filename.concat run_dir "check-verdicts" in
  ignore (P.prewarmed (config ~verdicts serve_rules) : P.config);
  let ratios = Hashtbl.create 32 and labels = ref [] in
  let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) r.first []) in
  List.iter
    (fun id ->
      let req, reply = Hashtbl.find r.first id in
      let input =
        { Inputs.label = req.Inputs.rlabel; rules = serve_rules; src = req.rsrc; check = Differential req.func }
      in
      let ok =
        match t with
        | Some t -> trace_one t o ~verdicts ~first_untraced:(id mod 2 = 0) ~expect:reply input <> None
        | None -> (
          match optimize ~verdicts input with
          | out when out = reply -> true
          | _ -> fail o (req.rlabel ^ ": the daemon's reply differs from optimize_source"); false
          | exception e -> fail o (req.rlabel ^ ": " ^ Printexc.to_string e); false)
      in
      if ok && id < List.length Inputs.serve_chains + Inputs.serve_initial_gen then begin
        labels := input.label :: !labels;
        match Checks.check input ~seed:a.seed ~out:reply with
        | Ok ratio -> Option.iter (Hashtbl.replace ratios input.label) ratio
        | Error e -> fail o e
      end)
    ids;
  (ratios, !labels)

let run_serve a ~run_dir o =
  setup_metric o (serve_setup ~run_dir);
  let cfg = daemon_config ~run_dir ~cache:"cache" in
  note o "%s" (describe_daemon cfg);
  let pid, _ = start_daemon cfg in
  let r =
    Fun.protect ~finally:(fun () -> stop_daemon pid) (fun () ->
        serve_loop a o ~daemon:pid cfg.socket_path)
  in
  latency_metrics o ~wall:r.wall ~lat:r.lat ~hit:r.hit ~miss:r.miss;
  metric o "peak_rss_mb" r.peak_rss_mb "MB";
  note o "peak_rss_mb is the largest VmHWM of the daemon and its workers";
  let ratios, labels = serve_verify a o ~run_dir r in
  cycles_metric o ratios labels

let trace_serve a ~run_dir o =
  let cfg = daemon_config ~run_dir ~cache:"cache" in
  note o "%s" (describe_daemon cfg);
  let pid, _ = start_daemon cfg in
  let sock = cfg.socket_path in
  let t = traced () in
  let r, stats =
    Fun.protect ~finally:(fun () -> stop_daemon pid) (fun () ->
        let r = serve_loop a o ~tr:t.tr ~daemon:pid sock in
        (r, Serve.Client.with_connection sock Serve.Client.stats))
  in
  ignore (serve_verify a o ~run_dir ~t r : (string, float) Hashtbl.t * string list);
  layer_metrics t o;
  serve_metrics o ~served:r.served ~stats ();
  note o "%d requests; re-drove %d distinct sources in process; spans in %s" (List.length r.lat)
    t.ops (write_trace a t)

let () =
  let a = parse_args () in
  let run_dir = make_run_dir a.name in
  let o = { attempted = 0; failed = 0; metrics = []; notes = [] } in
  note o "workload %s, seed %d, %gs, trace %b" a.name a.seed a.seconds a.trace;
  note o "%s" (describe_config ());
  let correct =
    Fun.protect ~finally:(fun () -> remove_tree run_dir) (fun () ->
        (match (a.workload, a.trace) with
        | Serve_mixed, false -> run_serve a ~run_dir o
        | Serve_mixed, true -> trace_serve a ~run_dir o
        | _, false -> run_compile a ~run_dir o
        | _, true -> trace_compile a ~run_dir o);
        print_result o)
  in
  exit (if correct then 0 else 1)
