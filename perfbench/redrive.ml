(* The traced run: [Dialegg.Pipeline.optimize_source] re-driven stage by
   stage through each layer's public entry point, with a span around
   every call.  It covers the strict configuration the benchmark ships
   (on_limit = Fail, one default schedule, no fault injection) and must
   print byte-identical output; the benchmark checks that on every
   input it traces. *)

open Dialegg
module P = Pipeline

let fail what diags =
  List.iter
    (fun d -> if not (Egglog.Diag.is_error d) then Fmt.epr "%a@." Egglog.Diag.pp d)
    diags;
  if Egglog.Diag.has_errors diags then
    raise
      (P.Error
         (Fmt.str "%s:@\n%a" what
            (Fmt.list ~sep:Fmt.cut Egglog.Diag.pp)
            (List.filter Egglog.Diag.is_error diags)))

let hit = function Vet.Hit_memory -> 1. | Vet.Hit_disk | Vet.Computed -> 0.

(* the lint / vet / audit tiers, once per module as in
   [Pipeline.optimize_module_report] *)
let static_tiers tr (config : P.config) =
  if config.rules <> "" then begin
    if config.lint then
      Span.span tr "lint" (fun () ->
          fail "rules failed lint" (Lint.lint_rules ~file:"<rules>" config.rules));
    if config.vet then
      Span.span tr "vet" (fun () ->
          let report, status =
            Vet.vet_cached ?cache_dir:config.vet_cache_dir ~file:"<rules>" config.rules
          in
          Span.count tr "memo_hit" (hit status);
          if status = Vet.Hit_memory then
            fail "rules failed vet" (List.filter Egglog.Diag.is_error report.Vet.v_diags)
          else fail "rules failed vet" report.Vet.v_diags);
    if config.audit then
      Span.span tr "audit" (fun () ->
          let report, status =
            Audit.audit_cached ?cache_dir:config.vet_cache_dir ~file:"<rules>" config.rules
          in
          Span.count tr "memo_hit" (hit status);
          if status = Audit.Hit_memory then
            fail "rules failed encoding audit"
              (List.filter Egglog.Diag.is_error report.Audit.a_diags)
          else fail "rules failed encoding audit" report.Audit.a_diags)
  end

let hard_stop = function
  | Egglog.Interp.Node_limit | Egglog.Interp.Timeout | Egglog.Interp.Memory_limit
  | Egglog.Interp.Fault _ ->
    true
  | Egglog.Interp.Saturated | Egglog.Interp.Iteration_limit -> false

(* [Pipeline.optimize_func_report] under [on_limit = Fail] *)
let optimize_func tr (config : P.config) hooks (func : Mlir.Ir.op) =
  let fname = Mlir.Ir.func_name func in
  if config.validate || config.verify then
    Span.span tr "validate" (fun () ->
        fail
          (Fmt.str "input function @%s fails verification" fname)
          (Validate.verify_diags ~code:"invalid-input" func));
  let snapshot =
    if config.validate then Some (Span.span tr "validate" (fun () -> Validate.capture func))
    else None
  in
  let engine =
    Span.span tr "prelude" (fun () ->
        let limits =
          Egglog.Limits.make ~max_nodes:config.max_nodes
            ?max_time_ms:(Option.map (fun s -> s *. 1000.) config.timeout)
            ?max_memory_mb:config.max_memory_mb ()
        in
        let engine = Egglog.Interp.create ~limits ~engine:config.engine ~jobs:config.jobs () in
        Egglog.Interp.set_naive_matching engine (not config.seminaive);
        Egglog.Interp.set_backoff engine config.backoff;
        Egglog.Interp.set_match_limit engine config.match_limit;
        Egglog.Interp.set_ban_length engine config.ban_length;
        Egglog.Interp.run_commands engine (Lazy.force Prelude.commands);
        engine)
  in
  Span.span tr "rules" (fun () ->
      try Egglog.Interp.run_string engine config.rules
      with Egglog.Parser.Error msg -> raise (P.Error ("rules: " ^ msg)));
  let sigs =
    Span.span tr "sigs" (fun () ->
        let sigs = Sigs.scan (Egglog.Interp.egraph engine) in
        Egglog.Interp.run_commands engine (Sigs.type_of_rules sigs);
        sigs)
  in
  let eggify, root =
    Span.span tr "eggify" (fun () ->
        let eggify = Eggify.create ~engine ~sigs ~hooks in
        let root = Eggify.translate_function eggify func in
        Span.count tr "nodes" (float_of_int (Egglog.Egraph.n_nodes (Egglog.Interp.egraph engine)));
        (eggify, root))
  in
  let stats =
    Span.span tr "saturate" (fun () ->
        let s = Egglog.Interp.run engine config.max_iterations in
        let rs = Egglog.Interp.rule_stats engine in
        let total f = List.fold_left (fun acc r -> acc + f r) 0 rs in
        Span.count tr "search_ms" (s.Egglog.Interp.search_time *. 1000.);
        Span.count tr "apply_ms" (s.Egglog.Interp.apply_time *. 1000.);
        Span.count tr "rebuild_ms" (s.Egglog.Interp.rebuild_time *. 1000.);
        Span.count tr "iterations" (float_of_int s.Egglog.Interp.iterations);
        Span.count tr "matches" (float_of_int (total (fun r -> r.Egglog.Interp.rs_matches)));
        Span.count tr "applied" (float_of_int (total (fun r -> r.Egglog.Interp.rs_applied)));
        Span.count tr "peak_nodes" (float_of_int s.Egglog.Interp.peak_nodes);
        s)
  in
  if hard_stop stats.Egglog.Interp.stop then
    raise
      (P.Error
         (Fmt.str "saturation of @%s stopped: %a" fname Egglog.Interp.pp_stop_reason
            stats.Egglog.Interp.stop));
  let extractor, term =
    Span.span tr "extract" (fun () ->
        let eg = Egglog.Interp.egraph engine in
        Egglog.Egraph.rebuild eg;
        let extractor = Egglog.Extract.make eg in
        let root_class =
          match Egglog.Interp.global engine root with
          | Egglog.Value.Eclass c -> c
          | _ -> raise (P.Error "root is not an e-class")
        in
        let term = Egglog.Extract.extract_class extractor root_class in
        ignore (Egglog.Extract.cost_of_class extractor root_class : int);
        ignore (Egglog.Extract.dag_cost extractor term : int);
        Span.count tr "classes" (float_of_int (Egglog.Egraph.n_classes eg));
        (extractor, term))
  in
  Span.span tr "deeggify" (fun () ->
      let deeggify =
        Deeggify.create ~unsafe_share_allocs:(Faults.alias_armed config.inject) ~sigs ~hooks
          ~extractor ~eggify ()
      in
      Deeggify.rebuild_function deeggify func term;
      if config.run_dce then ignore (Mlir.Transforms.dce func : int));
  Span.span tr "validate" (fun () ->
      match snapshot with
      | Some snap ->
        fail (Fmt.str "translation validation failed for @%s" fname) (Validate.check snap func)
      | None ->
        if config.verify then
          fail "rewritten function fails verification"
            (Validate.verify_diags ~code:"invalid-extraction" func))

(** [optimize_source tr config src] is [fst (Pipeline.optimize_source
    ~config src)], with spans recorded into [tr].
    @raise Invalid_argument unless [config] is strict with the default
    schedule and no fault injection. *)
let optimize_source ?(label = "") tr (config : P.config) src =
  if config.on_limit <> P.Fail || config.schedule <> None || config.inject <> None then
    invalid_arg "Redrive.optimize_source: only the strict default configuration is traced";
  Span.span ~label tr "op" (fun () ->
      let m = Span.span tr "parser" (fun () -> Mlir.Parser.parse_module src) in
      Span.span tr "validate" (fun () ->
          match Validate.verify_diags ~code:"invalid-input" m with
          | [] -> ()
          | diags ->
            raise
              (P.Error
                 (Fmt.str "input module fails verification:@\n%a" Egglog.Diag.pp_list diags)));
      static_tiers tr config;
      let config = { config with lint = false; vet = false; audit = false } in
      List.iter
        (fun op ->
          if op.Mlir.Ir.op_name = "func.func" then
            Span.span ~label:(Mlir.Ir.func_name op) tr "func" (fun () ->
                Mlir.Registry.ensure_registered ();
                optimize_func tr config (Translate.make_hooks ()) op))
        (Mlir.Ir.module_ops m);
      Span.span tr "printer" (fun () -> Mlir.Printer.module_to_string m))
