(* Summary statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] among [n] samples *)
let rank p n = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))))

(** Nearest-rank percentile [p] (0 < p <= 100) of a non-empty sample. *)
let percentile p xs =
  let a = sorted xs in
  if Array.length a = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank p (Array.length a) - 1)

(** Median: the mean of the two middle samples when their count is even. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** The percentiles the tail metric may report, highest first. *)
let tail_ladder = [ 99.9; 99.; 98.; 95.; 90.; 50. ]

(** [tail xs] is [(p, value)]: the highest percentile of {!tail_ladder}
    with at least [min_beyond] (default 10) samples ranked above it.
    With fewer than [2 * min_beyond] samples no percentile qualifies and
    the median is reported as p50. *)
let tail ?(min_beyond = 10) xs =
  let n = List.length xs in
  let p =
    match List.find_opt (fun p -> n - rank p n >= min_beyond) tail_ladder with
    | Some p -> p
    | None -> 50.
  in
  (p, percentile p xs)

(** Geometric mean of positive numbers. *)
let geomean xs =
  if xs = [] then invalid_arg "Stats.geomean: no samples";
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(** The block size of {!block_tail}; a gen-corpus pass has this many cases. *)
let tail_block = 600

(** [blocks size xs] cuts [xs] into consecutive blocks of [size] samples.
    A shorter remainder joins the last block, so a block has [size] to
    [2 * size - 1] samples; with fewer than [size] samples there is one
    block. *)
let blocks size xs =
  let rec take k acc = function
    | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go acc xs =
    match take size [] xs with
    | b, rest when List.compare_length_with rest size < 0 -> List.rev ((b @ rest) :: acc)
    | b, rest -> go (b :: acc) rest
  in
  go [] xs

(** [block_tail xs] is [(ps, value)]: the {!tail} of each block of
    {!tail_block} consecutive samples, and the median of those tails.  A
    stretch in which the host ran slow then moves the median of the
    blocks little, where it would set a percentile of the whole run.
    [ps] lists the percentiles the blocks used. *)
let block_tail xs =
  let tails = List.map (fun b -> tail b) (blocks tail_block xs) in
  (List.sort_uniq compare (List.map fst tails), median (List.map snd tails))
