(* Tests of the benchmark's own code: the statistics it reports and the
   determinism of its seeded inputs. *)

open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let floats n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* the tail percentile has at least ten samples beyond it *)
  check "tail of 1000 is p99" (Stats.tail (floats 1000) = (99., 990.));
  check "tail of 999 is p98" (fst (Stats.tail (floats 999)) = 98.);
  check "tail of 600 is p98" (Stats.tail (floats 600) = (98., 588.));
  check "tail of 300 is p95" (Stats.tail (floats 300) = (95., 285.));
  check "tail of 10000 is p99.9" (Stats.tail (floats 10_000) = (99.9, 9990.));
  check "tail of 100 is p90" (Stats.tail (floats 100) = (90., 90.));
  check "tail of 19 falls back to the median" (Stats.tail (floats 19) = (50., 10.));
  List.iter
    (fun n ->
      let p, v = Stats.tail (floats n) in
      let beyond = List.length (List.filter (fun x -> x > v) (floats n)) in
      check (Printf.sprintf "tail of %d leaves >= 10 beyond p%g" n p) (p = 50. || beyond >= 10))
    [ 20; 37; 100; 101; 199; 200; 499; 500; 600; 999; 1000; 4321; 10_000 ];
  (* the tail of a run is the median of its blocks' tails *)
  let sizes n = List.map List.length (Stats.blocks 600 (floats n)) in
  check "blocks of 1800" (sizes 1800 = [ 600; 600; 600 ]);
  check "a remainder joins the last block" (sizes 1799 = [ 600; 1199 ]);
  check "fewer samples than a block" (sizes 10 = [ 10 ]);
  check "blocks keep the order" (List.concat (Stats.blocks 600 (floats 1799)) = floats 1799);
  check "block tail is the median of p98s"
    (Stats.block_tail (floats 1800) = ([ 98. ], 1188.));
  check "percentile is nearest rank" (Stats.percentile 50. [ 3.; 1.; 2.; 4. ] = 2.);
  check "median of even count" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  (* the geometric mean *)
  check "geomean 1 4 = 2" (close (Stats.geomean [ 1.; 4. ]) 2.);
  check "geomean 2 8 4 = 4" (close (Stats.geomean [ 2.; 8.; 4. ]) 4.);
  check "geomean of equal values" (close (Stats.geomean [ 0.5; 0.5; 0.5 ]) 0.5);
  (* the same seed yields identical inputs *)
  let gen seed = List.init 12 (fun i -> (Inputs.gen_case ~seed i).Inputs.src) in
  let stream seed =
    let next = Inputs.serve_stream ~seed in
    List.init 200 (fun _ -> (next ()).Inputs.rsrc)
  in
  check "same seed, same gen corpus" (gen 7 = gen 7);
  check "same seed, same request stream" (stream 7 = stream 7);
  check "same seed, same round order"
    (Inputs.round_order ~seed:7 ~round:3 5 = Inputs.round_order ~seed:7 ~round:3 5);
  (* a different seed yields a different corpus and request stream *)
  check "other seed, other gen corpus" (gen 7 <> gen 8);
  check "other seed, other request stream" (stream 7 <> stream 8);
  check "a round order is a permutation"
    (List.sort compare (Array.to_list (Inputs.round_order ~seed:3 ~round:0 5)) = [ 0; 1; 2; 3; 4 ]);
  if !failures > 0 then exit 1 else print_endline "perfbench: all tests passed"
