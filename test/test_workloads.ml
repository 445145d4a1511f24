(* Tests for the benchmark workloads: every benchmark must parse, verify,
   execute, and produce reference-correct output under every optimization
   variant, and the optimized variants must never be slower (cost proxy)
   than the baseline. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* small scales to keep the suite fast *)
let test_scale (b : Workloads.Benchmark.t) =
  if b.name = "2MM" || b.name = "3MM" then b.default_scale else max 2 (b.default_scale / 20)

let test_benchmark_correct (b : Workloads.Benchmark.t) () =
  let scale = test_scale b in
  let ms = Workloads.Runner.run_all_variants ~runs:1 b ~scale in
  List.iter
    (fun (m : Workloads.Runner.measurement) ->
      match m.m_check with
      | Ok () -> ()
      | Error e ->
        Alcotest.fail
          (Printf.sprintf "%s/%s: wrong output: %s" b.name
             (Workloads.Runner.variant_name m.m_variant)
             e))
    ms;
  (* optimized variants must not be worse than baseline in the cost proxy *)
  let cycles v =
    (List.find (fun (m : Workloads.Runner.measurement) -> m.m_variant = v) ms).m_cycles
  in
  let base = cycles Workloads.Runner.Baseline in
  List.iter
    (fun (m : Workloads.Runner.measurement) ->
      if m.m_cycles > base then
        Alcotest.fail
          (Printf.sprintf "%s/%s: %d cycles > baseline %d" b.name
             (Workloads.Runner.variant_name m.m_variant)
             m.m_cycles base))
    ms

let test_dialegg_strictly_faster (b : Workloads.Benchmark.t) () =
  (* every benchmark was chosen because DialEgg finds a real optimization *)
  let scale = test_scale b in
  let base = Workloads.Runner.prepare b ~scale Workloads.Runner.Baseline in
  let opt = Workloads.Runner.prepare b ~scale Workloads.Runner.Dialegg in
  let mb = Workloads.Runner.measure ~runs:1 b ~scale base Workloads.Runner.Baseline in
  let mo = Workloads.Runner.measure ~runs:1 b ~scale opt Workloads.Runner.Dialegg in
  checkb
    (Printf.sprintf "%s: dialegg (%d) < baseline (%d)" b.name mo.m_cycles mb.m_cycles)
    true (mo.m_cycles < mb.m_cycles)

let test_3mm_greedy_suboptimal () =
  (* the paper's §8.4 headline: the greedy pass loses to DialEgg on 3MM *)
  let b = Workloads.Matmul_chain.benchmark_3mm in
  let scale = 3 in
  let greedy = Workloads.Runner.prepare b ~scale Workloads.Runner.Handwritten in
  let dialegg = Workloads.Runner.prepare b ~scale Workloads.Runner.Dialegg in
  let mg = Workloads.Runner.measure ~runs:1 b ~scale greedy Workloads.Runner.Handwritten in
  let md = Workloads.Runner.measure ~runs:1 b ~scale dialegg Workloads.Runner.Dialegg in
  checkb "greedy output correct" true (mg.m_check = Ok ());
  checkb
    (Printf.sprintf "dialegg (%d) beats greedy (%d) on 3MM" md.m_cycles mg.m_cycles)
    true (md.m_cycles < mg.m_cycles)

let test_2mm_greedy_matches () =
  let b = Workloads.Matmul_chain.benchmark_2mm in
  let scale = 2 in
  let greedy = Workloads.Runner.prepare b ~scale Workloads.Runner.Handwritten in
  let dialegg = Workloads.Runner.prepare b ~scale Workloads.Runner.Dialegg in
  let mg = Workloads.Runner.measure ~runs:1 b ~scale greedy Workloads.Runner.Handwritten in
  let md = Workloads.Runner.measure ~runs:1 b ~scale dialegg Workloads.Runner.Dialegg in
  checki "2MM: greedy matches dialegg" md.m_cycles mg.m_cycles

let test_canon_is_noop_on_benchmarks () =
  (* paper Fig. 3: canonicalization alone achieves no speedup on these *)
  List.iter
    (fun (b : Workloads.Benchmark.t) ->
      let scale = test_scale b in
      let base = Workloads.Runner.prepare b ~scale Workloads.Runner.Baseline in
      let canon = Workloads.Runner.prepare b ~scale Workloads.Runner.Canon in
      let mb = Workloads.Runner.measure ~runs:1 b ~scale base Workloads.Runner.Baseline in
      let mc = Workloads.Runner.measure ~runs:1 b ~scale canon Workloads.Runner.Canon in
      checki (b.name ^ ": canon = baseline cycles") mb.m_cycles mc.m_cycles)
    Workloads.Suite.all

let test_table1_counts () =
  (* our programs must use the same dialect mix as the paper's (the exact
     counts differ since the programs were rewritten from the description) *)
  List.iter
    (fun (b : Workloads.Benchmark.t) ->
      let m = Workloads.Benchmark.build b ~scale:(test_scale b) in
      let counts = Workloads.Benchmark.dialect_counts m in
      let get d = Option.value ~default:0 (List.assoc_opt d counts) in
      let paper = List.assoc b.name Workloads.Suite.paper_table1 in
      List.iter
        (fun (dialect, paper_count) ->
          let ours = get dialect in
          if paper_count > 0 && ours = 0 && dialect <> "tensor" then
            Alcotest.fail
              (Printf.sprintf "%s: paper uses dialect %s but we do not" b.name dialect))
        paper)
    Workloads.Suite.all

let test_nmm_chain_generator () =
  List.iter
    (fun n ->
      let src = Workloads.Matmul_chain.source ~scale:n in
      let m = Mlir.Parser.parse_module src in
      Mlir.Verifier.verify_exn m;
      checki
        (Printf.sprintf "%dMM has %d matmuls" n n)
        n
        (List.length (Mlir.Ir.collect_ops (fun o -> o.Mlir.Ir.op_name = "linalg.matmul") m)))
    [ 2; 3; 5; 10 ]

let test_nmm_pipeline_improves () =
  (* a longer random chain: dialegg must still produce a valid, cheaper or
     equal chain *)
  let b = Workloads.Matmul_chain.benchmark_nmm 6 in
  let base = Workloads.Runner.prepare b ~scale:6 Workloads.Runner.Baseline in
  let opt = Workloads.Runner.prepare b ~scale:6 Workloads.Runner.Dialegg in
  let mb = Workloads.Runner.measure ~runs:1 b ~scale:6 base Workloads.Runner.Baseline in
  let mo = Workloads.Runner.measure ~runs:1 b ~scale:6 opt Workloads.Runner.Dialegg in
  checkb "6MM output correct" true (mo.m_check = Ok ());
  checkb "6MM not worse" true (mo.m_cycles <= mb.m_cycles)

let test_rule_counts () =
  (* Table 2's #Rules column *)
  checki "img-conv rules" 1 (Dialegg.Rules.count_rules Dialegg.Rules.div_pow2);
  checki "vec-norm rules" 1 (Dialegg.Rules.count_rules Dialegg.Rules.fast_inv_sqrt);
  checki "poly rules" 8 (Dialegg.Rules.count_rules Dialegg.Rules.horner);
  checki "matmul rules" 2 (Dialegg.Rules.count_rules Dialegg.Rules.matmul_assoc)

let test_rng_deterministic () =
  let a = Workloads.Rng.create 7 and b = Workloads.Rng.create 7 in
  for _ = 1 to 100 do
    checkb "same stream" true (Workloads.Rng.float a = Workloads.Rng.float b)
  done;
  let c = Workloads.Rng.create 8 in
  checkb "different seed differs" true
    (List.init 10 (fun _ -> Workloads.Rng.int a 1000)
    <> List.init 10 (fun _ -> Workloads.Rng.int c 1000))

(* Golden digests of the optimizer's printed output.  Extraction must stay
   byte-identical across refactors of the e-graph, the matcher or the
   extractor: every pair below is optimized under the shipped default
   configuration (static tiers off; they only gate) and the MD5 of the
   printed module compared with the digest recorded when the pin was
   added.  A mismatch prints the new digest; update the table only for a
   change that is meant to alter the optimizer's choices. *)

(* the paper benchmarks at Table 2 compile scale: the matmul chains at
   paper dimensions, the others at a hundredth of the default scale *)
let golden_scale (b : Workloads.Benchmark.t) =
  if b.name = "2MM" || b.name = "3MM" then b.default_scale else max 2 (b.default_scale / 100)

(* the suite already holds 2MM and 3MM, so the chains continue at 4MM *)
let golden_inputs () =
  List.map (fun (b : Workloads.Benchmark.t) -> (b, golden_scale b)) Workloads.Suite.all
  @ List.init 11 (fun k -> (Workloads.Matmul_chain.benchmark_nmm (k + 4), k + 4))

let golden_digests =
  [
    ("img-conv", "2dcb173524e50076eb2fba2332ed4d8b");
    ("vec-norm", "f4340d46cbb1a8cef60c361ef487d217");
    ("poly", "b003709baff4c7529b678b89e305233e");
    ("2MM", "5d5a1e5567af6288de5f5ce09b1a5fb5");
    ("3MM", "fe0e7e95b41f11e615bfdbbf5c6f61f5");
    ("4MM", "7d169ee80cab79f4f89a7b555c2138d5");
    ("5MM", "10ba1312ad4ec270a4079dcf80e1a61f");
    ("6MM", "c292920d998cce7e7703ff12b6d9f492");
    ("7MM", "5fe7bba1de850c94be7ac7b07ab63bb1");
    ("8MM", "8d9d1a0b2b35ddfb3c82a8347791970e");
    ("9MM", "2f6ce8b9fe99b666648fbd44e6c93ecf");
    ("10MM", "ba44c6b34c23eb18e451e17891432005");
    ("11MM", "a6049e8bbf09204510414aa9442e5830");
    ("12MM", "b48d6417a2914c908fa6be318b7f9455");
    ("13MM", "1b5db0328ee9eedbfa4192dd852c6026");
    ("14MM", "3bb3bc43304daaff16e5d1685bae91fe");
  ]

let optimized_digest (b : Workloads.Benchmark.t) ~scale =
  let config =
    {
      Dialegg.Pipeline.default_config with
      rules = b.rules;
      lint = false;
      vet = false;
      audit = false;
    }
  in
  let out, _ = Dialegg.Pipeline.optimize_source ~config (b.source ~scale) in
  Digest.to_hex (Digest.string out)

let test_golden_output () =
  let inputs = golden_inputs () in
  checki "one digest per input" (List.length golden_digests) (List.length inputs);
  List.iter2
    (fun ((b : Workloads.Benchmark.t), scale) (name, expected) ->
      Alcotest.(check string) "input order" name b.name;
      Alcotest.(check string)
        (Printf.sprintf "%s at scale %d: printed output digest" b.name scale)
        expected (optimized_digest b ~scale))
    inputs golden_digests

let () =
  let correctness =
    List.map
      (fun (b : Workloads.Benchmark.t) ->
        Alcotest.test_case (b.name ^ " all variants correct") `Slow (test_benchmark_correct b))
      Workloads.Suite.all
  in
  let speedups =
    List.map
      (fun (b : Workloads.Benchmark.t) ->
        Alcotest.test_case (b.name ^ " dialegg faster") `Slow (test_dialegg_strictly_faster b))
      Workloads.Suite.all
  in
  Alcotest.run "workloads"
    [
      ("correctness", correctness);
      ("speedups", speedups);
      ( "paper-claims",
        [
          Alcotest.test_case "3MM: greedy is suboptimal" `Slow test_3mm_greedy_suboptimal;
          Alcotest.test_case "2MM: greedy matches dialegg" `Slow test_2mm_greedy_matches;
          Alcotest.test_case "canonicalization is a no-op here" `Slow
            test_canon_is_noop_on_benchmarks;
          Alcotest.test_case "Table 1 dialect coverage" `Quick test_table1_counts;
          Alcotest.test_case "rule counts" `Quick test_rule_counts;
        ] );
      ( "generators",
        [
          Alcotest.test_case "NMM chains" `Quick test_nmm_chain_generator;
          Alcotest.test_case "6MM improves" `Slow test_nmm_pipeline_improves;
          Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
        ] );
      ("golden", [ Alcotest.test_case "optimized output digests" `Slow test_golden_output ]);
    ]
