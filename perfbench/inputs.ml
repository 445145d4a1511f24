(* The workloads' inputs.  Every input is a pure function of the seed,
   so the same seed gives the same inputs; the optimizer only ever sees
   the generated sources. *)

module Rng = Workloads.Rng

(** How an optimized output is checked. *)
type check =
  | Reference of Workloads.Benchmark.t * int
      (** interpret the optimized module at this scale on the benchmark's
          seeded input and compare with its OCaml reference *)
  | Differential of string
      (** interpret the original and the optimized function on
          [Gen.random_args] and compare *)

type input = { label : string; rules : string; src : string; check : check }

let of_benchmark (b : Workloads.Benchmark.t) ~scale =
  { label = b.name; rules = b.rules; src = b.source ~scale; check = Reference (b, scale) }

(* Table 2 compile scale: the matmul chains at paper dimensions, the
   others at a hundredth of the default scale (op count, not tensor
   size, drives compile time). *)
let table2_scale (b : Workloads.Benchmark.t) =
  if b.name = "2MM" || b.name = "3MM" then b.default_scale else max 2 (b.default_scale / 100)

(** The five paper benchmarks, each with its paper ruleset. *)
let paper_suite () =
  List.map (fun b -> of_benchmark b ~scale:(table2_scale b)) Workloads.Suite.all

let nmm_lengths = [ 10; 11; 12; 13; 14 ]

(** NMM chains under [matmul_assoc]. *)
let nmm_chain () =
  List.map (fun n -> of_benchmark (Workloads.Matmul_chain.benchmark_nmm n) ~scale:n) nmm_lengths

(** Case [i] of the seed's [lib/gen] corpus, with its own ruleset. *)
let gen_case ~seed i =
  let c = Gen.case ~seed i in
  {
    label = Printf.sprintf "gen-%s-%d" (Gen.shape_name c.Gen.c_shape) i;
    rules = c.Gen.c_egg;
    src = c.Gen.c_mlir;
    check = Differential c.Gen.c_func;
  }

(** A seeded permutation of [0 .. n-1] for round [round] of a closed
    loop over a fixed input set: every input runs once per round, in an
    order drawn from the seed. *)
let round_order ~seed ~round n =
  let a = Array.init n Fun.id in
  let rng = Rng.create ((seed * 7919) + round) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** One daemon request: [id] numbers the distinct sources of a stream. *)
type request = { id : int; rlabel : string; rsrc : string; func : string }

let serve_chains = List.init 13 (fun k -> k + 2)
let serve_initial_gen = 8

(** Share of requests that bring a source the stream has not sent yet. *)
let serve_fresh_share = 0.2

(** A repeated request draws from this many most recent sources.  The
    window is smaller than the daemon's in-memory cache (512 functions),
    so once it is full the mix no longer changes with the run's length:
    a pool that kept every source would send more and more hits to the
    disk tier the longer the daemon ran, and a faster daemon would get
    there sooner. *)
let serve_window = 400

(** The serve-mixed request stream: [next ()] returns the next request.
    The pool starts with the NMM chains 2–14 and the first
    {!serve_initial_gen} [Gen] matmul cases.  Each request is, with
    probability {!serve_fresh_share}, a source the stream has not sent
    yet (added to the pool), otherwise a uniform draw from the
    {!serve_window} most recent sources of the pool.  A
    fresh source is the next [Gen] matmul case or, as often, a 4–14
    matmul chain with seeded dimensions: [Gen] cases often share printed
    functions with earlier ones, so they alone would rarely miss the
    daemon's cache. *)
let serve_stream ~seed =
  let rng = Rng.create ((seed * 104_729) + 3) in
  let pool = Hashtbl.create 64 in
  let add rlabel rsrc func =
    let r = { id = Hashtbl.length pool; rlabel; rsrc; func } in
    Hashtbl.replace pool r.id r;
    r
  in
  let next_gen = ref 0 in
  let add_gen () =
    let c = Gen.case ~shapes:[ Gen.Matmul ] ~seed !next_gen in
    incr next_gen;
    add (Printf.sprintf "gen-matmul-%d" c.Gen.c_index) c.Gen.c_mlir c.Gen.c_func
  in
  let add_chain () =
    let n = 4 + Rng.int rng 11 in
    let dims = Workloads.Matmul_chain.dims_for ~n ~seed:(Rng.int rng 1_000_000_000) in
    add (Printf.sprintf "%dMM-%d" n (Hashtbl.length pool)) (Workloads.Matmul_chain.source_chain dims) "mm_chain"
  in
  List.iter
    (fun n ->
      ignore (add (Printf.sprintf "%dMM" n) (Workloads.Matmul_chain.source ~scale:n) "mm_chain"))
    serve_chains;
  for _ = 1 to serve_initial_gen do
    ignore (add_gen ())
  done;
  fun () ->
    if Rng.float rng < serve_fresh_share then if Rng.int rng 2 = 0 then add_gen () else add_chain ()
    else
      let n = Hashtbl.length pool in
      let lo = max 0 (n - serve_window) in
      Hashtbl.find pool (lo + Rng.int rng (n - lo))
