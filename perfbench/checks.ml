(* Output checks.  Each returns the cycle-proxy ratio (optimized over
   unoptimized, from [Mlir.Interp]) when both programs ran. *)

let close_float x y =
  x = y
  || (Float.is_nan x && Float.is_nan y)
  || Float.abs (x -. y) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))

let rv_close (a : Mlir.Interp.rv) (b : Mlir.Interp.rv) =
  match (a, b) with
  | Ri (x, w), Ri (y, w') -> w = w' && Int64.equal x y
  | Rf (x, _), Rf (y, _) -> close_float x y
  | Rt t1, Rt t2 -> (
    t1.shape = t2.shape
    &&
    match (t1.data, t2.data) with
    | Df a1, Df a2 -> Array.for_all2 close_float a1 a2
    | Di a1, Di a2 -> Array.for_all2 Int64.equal a1 a2
    | _ -> false)
  | Runit, Runit -> true
  | _ -> false

let ratio (r_in : Mlir.Interp.result) (r_out : Mlir.Interp.result) =
  float_of_int (max 1 r_out.cycles) /. float_of_int (max 1 r_in.cycles)

let run m func args =
  match Mlir.Interp.run ~fuel:2_000_000 m func args with
  | r -> Ok r
  | exception Mlir.Interp.Runtime_error e -> Error e

(** Interpret [out] on the benchmark's input for [seed] (fresh tensors per
    run: the interpreter writes destinations in place) and compare with
    the OCaml reference. *)
let reference (b : Workloads.Benchmark.t) ~scale ~seed ~src ~out =
  let input () = b.make_input ~scale ~seed in
  let m_in = Mlir.Parser.parse_module src and m_out = Mlir.Parser.parse_module out in
  match (run m_in b.main_func (input ()), run m_out b.main_func (input ())) with
  | Ok r_in, Ok r_out -> (
    match b.check ~scale ~input:(input ()) ~output:r_out.values with
    | Ok () -> Ok (ratio r_in r_out)
    | Error e -> Error (b.name ^ ": " ^ e))
  | Error e, _ -> Error (b.name ^ ": the input program traps: " ^ e)
  | _, Error e -> Error (b.name ^ ": the optimized program traps: " ^ e)

(** Interpreter differential: original and optimized [func] on the same
    [Gen.random_args]; both trapping with the same error also agrees. *)
let differential ~func ~seed ~src ~out =
  let m_in = Mlir.Parser.parse_module src and m_out = Mlir.Parser.parse_module out in
  let args () = Gen.random_args ~seed m_in func in
  match (run m_in func (args ()), run m_out func (args ())) with
  | Ok r_in, Ok r_out ->
    if
      List.length r_in.values = List.length r_out.values
      && List.for_all2 rv_close r_in.values r_out.values
    then Ok (Some (ratio r_in r_out))
    else Error (func ^ ": the optimized program computes a different result")
  | Error e, Error e' when e = e' -> Ok None
  | Error e, _ -> Error (func ^ ": only the input program traps: " ^ e)
  | _, Error e -> Error (func ^ ": only the optimized program traps: " ^ e)

(** Check [out] for [input] (seeded by [seed]). *)
let check (input : Inputs.input) ~seed ~out =
  match input.check with
  | Inputs.Reference (b, scale) ->
    Result.map Option.some (reference b ~scale ~seed ~src:input.src ~out)
  | Inputs.Differential func -> differential ~func ~seed ~src:input.src ~out
