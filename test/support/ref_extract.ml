(* A reference extractor for tests: the scan-every-table algorithm, written
   plainly.  Every query rescans every constructor table of the e-graph,
   so it is slow, but each step reads directly off the cost model's
   definition.  It mirrors Egglog.Extract's contract exactly: the same
   tree costs, the same tie-break (declaration order of the head, then
   the extracted arguments compared structurally; among equal keys the
   candidate met last in table order), the same per-class memo and cycle
   guard, and the same error messages. *)

open Egglog

let infinity_cost = max_int / 4
let add a b = min infinity_cost (a + b)
let error fmt = Fmt.kstr (fun s -> raise (Extract.Error s)) fmt

type t = {
  eg : Egraph.t;
  cost : (int, int) Hashtbl.t;
  memo : (int, Extract.term) Hashtbl.t;
  chosen : (int, int) Hashtbl.t;
  busy : (int, unit) Hashtbl.t;
}

(* Every extractable e-node as (declaration index, function, args, class),
   tables in declaration order, rows in iteration order. *)
let enodes eg =
  List.concat
    (List.mapi
       (fun fi (f : Egraph.func) ->
         if Egraph.is_constructor f && not f.unextractable then begin
           let rows = ref [] in
           Egraph.iter_rows eg f (fun args out ->
               match out with
               | Value.Eclass c -> rows := (fi, f, args, Egraph.find_class eg c) :: !rows
               | _ -> ());
           List.rev !rows
         end
         else [])
       (Egraph.functions eg))

let class_cost r c =
  Option.value ~default:infinity_cost (Hashtbl.find_opt r.cost (Egraph.find_class r.eg c))

let rec value_cost r (v : Value.t) =
  match v with
  | Eclass c -> class_cost r c
  | Vec es -> Array.fold_left (fun acc e -> add acc (value_cost r e)) 0 es
  | _ -> 0

let base_cost r (f : Egraph.func) args =
  match Egraph.cost_override r.eg f args with
  | Some c -> c
  | None -> Option.value f.cost ~default:1

let node_cost r f args =
  Array.fold_left (fun acc v -> add acc (value_cost r v)) (min infinity_cost (base_cost r f args)) args

let make eg =
  let r =
    {
      eg;
      cost = Hashtbl.create 16;
      memo = Hashtbl.create 16;
      chosen = Hashtbl.create 16;
      busy = Hashtbl.create 16;
    }
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (_, f, args, c) ->
        let k = node_cost r f args in
        if k < class_cost r c then begin
          Hashtbl.replace r.cost c k;
          changed := true
        end)
      (enodes eg)
  done;
  r

let cost_of_class = class_cost

(* the class's e-nodes, found by scanning every table *)
let nodes_of r cls = List.filter (fun (_, _, _, c) -> c = cls) (enodes r.eg)

let rec compare_term (a : Extract.term) (b : Extract.term) =
  match (a.t_kind, b.t_kind) with
  | Prim x, Prim y -> Stdlib.compare x y
  | Prim _, _ -> -1
  | _, Prim _ -> 1
  | Node (s, xs), Node (s', ys) ->
    let c = String.compare (Symbol.name s) (Symbol.name s') in
    if c <> 0 then c else List.compare compare_term xs ys
  | Node _, _ -> -1
  | _, Node _ -> 1
  | T_vec xs, T_vec ys -> List.compare compare_term xs ys

let compare_key (fi, sub) (fi', sub') =
  let c = Int.compare fi fi' in
  if c <> 0 then c else List.compare compare_term sub sub'

let rec extract_class r cls =
  let cls = Egraph.find_class r.eg cls in
  match Hashtbl.find_opt r.memo cls with
  | Some t -> t
  | None ->
    if Hashtbl.mem r.busy cls then error "e-class %d is cyclic through zero-cost e-nodes" cls;
    if class_cost r cls >= infinity_cost then
      error "e-class %d has no finite-cost term (cyclic with no base case)" cls;
    Hashtbl.replace r.busy cls ();
    (* unmark on failure too, or a later request reports a false cycle *)
    Fun.protect ~finally:(fun () -> Hashtbl.remove r.busy cls) @@ fun () ->
    let nodes = List.map (fun (fi, f, args, _) -> (fi, f, args, node_cost r f args)) (nodes_of r cls) in
    let best = List.fold_left (fun m (_, _, _, k) -> min m k) infinity_cost nodes in
    let cands = List.filter (fun (_, _, _, k) -> k = best) nodes in
    let f, args, sub =
      match cands with
      | [] -> error "e-class %d has no e-nodes to extract" cls
      | [ (_, f, args, _) ] -> (f, args, List.map (extract_value r) (Array.to_list args))
      | _ -> (
        (* candidates are tried last-first; among equal keys the first
           tried wins *)
        let keyed =
          List.filter_map
            (fun (fi, f, args, _) ->
              match List.map (extract_value r) (Array.to_list args) with
              | sub -> Some ((fi, sub), (f, args, sub))
              | exception Extract.Error _ -> None)
            (List.rev cands)
        in
        match List.stable_sort (fun (k, _) (k', _) -> compare_key k k') keyed with
        | (_, chosen) :: _ -> chosen
        | [] -> error "e-class %d has no acyclic minimal e-node" cls)
    in
    Hashtbl.replace r.chosen cls (base_cost r f args);
    let t = Extract.node ~cls f.Egraph.sym sub in
    Hashtbl.replace r.memo cls t;
    t

and extract_value r (v : Value.t) =
  match v with
  | Eclass c -> extract_class r c
  | Vec es -> Extract.t_vec (List.map (extract_value r) (Array.to_list es))
  | p -> Extract.prim p

let variants r cls n =
  let cls = Egraph.find_class r.eg cls in
  let cands =
    List.filter_map
      (fun (fi, f, args, _) ->
        let k = node_cost r f args in
        if k >= infinity_cost then None
        else
          match List.map (extract_value r) (Array.to_list args) with
          | sub -> Some (k, (fi, sub), f)
          | exception Extract.Error _ -> None)
      (nodes_of r cls)
  in
  let sorted =
    List.stable_sort
      (fun (k, key, _) (k', key', _) ->
        let c = Int.compare k k' in
        if c <> 0 then c else compare_key key key')
      cands
  in
  List.filteri (fun i _ -> i < n) sorted
  |> List.map (fun (k, (_, sub), (f : Egraph.func)) -> (Extract.node ~cls f.sym sub, k))

let dag_cost r root =
  let seen = Hashtbl.create 16 in
  let rec go (t : Extract.term) =
    match t.t_class with
    | Some c when Hashtbl.mem seen c -> 0
    | Some c ->
      Hashtbl.replace seen c ();
      Option.value ~default:1 (Hashtbl.find_opt r.chosen c)
      + List.fold_left (fun acc t -> acc + go t) 0 (Extract.children t)
    | None -> List.fold_left (fun acc t -> acc + go t) 0 (Extract.children t)
  in
  go root
