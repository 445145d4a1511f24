(** Extraction: finding the lowest-cost term of an e-class.

    The cost of an e-node [(f a1 ... an)] is

    {v node_cost(f, args) + sum of the costs of every e-class referenced by
       the arguments (including e-classes nested inside vector values) v}

    where [node_cost] is the [unstable-cost] override for that exact e-node
    if one was set (the paper's §6.2 variable cost models), otherwise the
    [:cost] of the constructor, otherwise 1.  Primitive leaf values cost 0.
    Like egg/egglog, shared sub-DAGs are counted once per reference (tree
    cost), which is the standard extraction approximation.

    {!make} reads the rebuilt e-graph once, egg-style: it walks the
    extractable constructor tables in declaration order and their rows in
    iteration order, decoding each row a single time, and files every
    e-node under its canonical class together with its base cost.  Costs
    per class are then computed by a fixpoint iteration from ⊤ (infinite)
    over that flat node array, O(passes × nodes); e-classes with no finite
    derivation (purely cyclic) keep infinite cost, and extracting them is
    an error.  Extracting a class, or listing its variants, reads only the
    class's own node list, O(class size) — never the whole table.

    Every extracted constructor term records the e-class it was extracted
    from ([t_class]); terms are memoized per class, so shared sub-terms are
    physically shared — DialEgg's de-eggifier uses both properties to
    rebuild SSA sharing and region structure. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(** An extracted term.  Vectors are flattened into [T_vec] nodes so that no
    raw e-class ids remain anywhere in the result. *)
type term = { t_kind : kind; t_class : int option }

and kind =
  | Node of Symbol.t * term list  (** constructor application *)
  | Prim of Value.t  (** primitive leaf (never contains an e-class) *)
  | T_vec of term list  (** extracted vector value *)

let node ?cls sym args = { t_kind = Node (sym, args); t_class = cls }
let prim v = { t_kind = Prim v; t_class = None }
let t_vec ts = { t_kind = T_vec ts; t_class = None }

let rec pp_term ppf t =
  match t.t_kind with
  | Node (sym, []) -> Fmt.pf ppf "(%a)" Symbol.pp sym
  | Node (sym, args) ->
    Fmt.pf ppf "(@[<hov>%a@ %a@])" Symbol.pp sym (Fmt.list ~sep:Fmt.sp pp_term) args
  | Prim (Str s) -> Fmt.pf ppf "\"%s\"" (Sexp.escape_string s)
  | Prim (I64 n) -> Fmt.pf ppf "%Ld" n
  | Prim (F64 f) ->
    let s = Printf.sprintf "%.17g" f in
    let s =
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s
      else s ^ ".0"
    in
    Fmt.string ppf s
  | Prim v -> Value.pp ppf v
  | T_vec elems -> Fmt.pf ppf "(@[<hov>vec-of@ %a@])" (Fmt.list ~sep:Fmt.sp pp_term) elems

let term_to_string t = Fmt.str "%a" pp_term t

let rec term_equal a b =
  match (a.t_kind, b.t_kind) with
  | Node (s1, a1), Node (s2, a2) ->
    Symbol.equal s1 s2 && List.length a1 = List.length a2 && List.for_all2 term_equal a1 a2
  | Prim v1, Prim v2 -> Value.equal v1 v2
  | T_vec a1, T_vec a2 -> List.length a1 = List.length a2 && List.for_all2 term_equal a1 a2
  | _ -> false

(** Total order on terms by structure only — symbol names and primitive
    payloads, never e-class ids — so it agrees across storage engines that
    number classes differently.  [Prim] leaves never contain e-classes, so
    polymorphic compare is safe there. *)
let rec term_compare a b =
  match (a.t_kind, b.t_kind) with
  | Prim v1, Prim v2 -> Stdlib.compare v1 v2
  | Prim _, _ -> -1
  | _, Prim _ -> 1
  | Node (s1, a1), Node (s2, a2) ->
    let c = String.compare (Symbol.name s1) (Symbol.name s2) in
    if c <> 0 then c else term_list_compare a1 a2
  | Node _, _ -> -1
  | _, Node _ -> 1
  | T_vec a1, T_vec a2 -> term_list_compare a1 a2

and term_list_compare l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys ->
    let c = term_compare x y in
    if c <> 0 then c else term_list_compare xs ys

(** Head symbol name of a constructor term. *)
let head t = match t.t_kind with Node (sym, _) -> Some (Symbol.name sym) | _ -> None

let children t =
  match t.t_kind with Node (_, args) -> args | T_vec args -> args | Prim _ -> []

(* ------------------------------------------------------------------ *)
(* Class index and cost computation                                    *)
(* ------------------------------------------------------------------ *)

let infinity_cost = max_int / 4

(** An extractable e-node, as recorded by {!make}. *)
type enode = {
  fi : int;  (** declaration index of the head function: the first tie-break key *)
  func : Egraph.func;
  args : Value.t array;  (** canonical *)
  base : int;  (** [unstable-cost] override, else [:cost], else 1 *)
}

type t = {
  eg : Egraph.t;
  nodes : (int, enode list) Hashtbl.t;
      (** canonical class id -> its e-nodes, in declaration order of the
          head function, then row order *)
  class_cost : (int, int) Hashtbl.t;  (** canonical class id -> best known cost *)
  memo : (int, term) Hashtbl.t;  (** canonical class id -> extracted term *)
  chosen : (int, int) Hashtbl.t;
      (** canonical class id -> base cost of the e-node extraction picked
          (with any unstable-cost override applied); feeds {!dag_cost} *)
  extracting : (int, unit) Hashtbl.t;
      (** classes currently being extracted — guards the tie-break against
          zero-cost self-referencing candidates *)
}

let class_cost st cls =
  match Hashtbl.find_opt st.class_cost (Egraph.find_class st.eg cls) with
  | Some c -> c
  | None -> infinity_cost

(* Costs saturate at [infinity_cost]; both operands are at most that, so
   the sum cannot overflow. *)
let add_cost a b = min infinity_cost (a + b)

(** Sum of costs of every e-class referenced inside [v]. *)
let rec value_cost st (v : Value.t) =
  match v with
  | Eclass id -> class_cost st id
  | Vec elems -> Array.fold_left (fun acc e -> add_cost acc (value_cost st e)) 0 elems
  | _ -> 0

let node_cost st n =
  Array.fold_left (fun acc v -> add_cost acc (value_cost st v)) (min infinity_cost n.base) n.args

let nodes_of st cls = Option.value ~default:[] (Hashtbl.find_opt st.nodes cls)

(** Build an extractor: one pass over the constructor tables files every
    e-node under its canonical class, then the best cost of every class is
    computed by fixpoint iteration over those nodes.  The e-graph must be
    rebuilt, and must not change while the extractor is in use. *)
let make eg : t =
  let flat = ref [] in
  List.iteri
    (fun fi (f : Egraph.func) ->
      if Egraph.is_constructor f && not f.unextractable then
        Egraph.iter_rows eg f (fun args out ->
            match out with
            | Eclass cls ->
              let base =
                match Egraph.cost_override eg f args with
                | Some c -> c
                | None -> Option.value f.cost ~default:1
              in
              flat := (Egraph.find_class eg cls, { fi; func = f; args; base }) :: !flat
            | _ -> ()))
    (Egraph.functions eg);
  let nodes = Hashtbl.create 64 in
  (* [flat] is in reverse order, so consing builds each list in order *)
  List.iter
    (fun (cls, n) ->
      Hashtbl.replace nodes cls (n :: Option.value ~default:[] (Hashtbl.find_opt nodes cls)))
    !flat;
  let flat = Array.of_list (List.rev !flat) in
  let st =
    {
      eg;
      nodes;
      class_cost = Hashtbl.create (Hashtbl.length nodes);
      memo = Hashtbl.create 64;
      chosen = Hashtbl.create 64;
      extracting = Hashtbl.create 16;
    }
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (cls, n) ->
        let c = node_cost st n in
        if c < class_cost st cls then begin
          Hashtbl.replace st.class_cost cls c;
          changed := true
        end)
      flat
  done;
  st

(* ------------------------------------------------------------------ *)
(* Term extraction                                                     *)
(* ------------------------------------------------------------------ *)

(** Extract the lowest-cost term of e-class [cls].  Memoized per class, so
    shared sub-terms are physically shared. *)
let rec extract_class st cls : term =
  let cls = Egraph.find_class st.eg cls in
  match Hashtbl.find_opt st.memo cls with
  | Some t -> t
  | None ->
    if Hashtbl.mem st.extracting cls then
      error "e-class %d is cyclic through zero-cost e-nodes" cls;
    if class_cost st cls >= infinity_cost then
      error "e-class %d has no finite-cost term (cyclic with no base case)" cls;
    Hashtbl.replace st.extracting cls ();
    (* unmark on failure too: a tie-break candidate that cycles back fails
       here, and a later request from another parent must not see a
       false cycle *)
    Fun.protect ~finally:(fun () -> Hashtbl.remove st.extracting cls) @@ fun () ->
    (* Collect every minimal-cost candidate with its function's declaration
       index.  Keeping just the first winner would make the choice depend on
       row iteration order, which differs between storage engines. *)
    let best_cost = ref infinity_cost in
    let cands = ref [] in
    List.iter
      (fun n ->
        let c = node_cost st n in
        if c < !best_cost then begin
          best_cost := c;
          cands := [ n ]
        end
        else if c = !best_cost then cands := n :: !cands)
      (nodes_of st cls);
    let n, sub =
      match !cands with
      | [] -> error "e-class %d has no e-nodes to extract" cls
      | [ n ] -> (n, Array.to_list n.args |> List.map (extract_value st))
      | cands ->
        (* Deterministic tie-break: declaration order of the head function,
           then the extracted argument terms compared structurally.  Both
           keys are independent of e-class numbering and row order, so every
           engine extracts the same bytes.  Candidates whose extraction
           cycles back into this class are discarded. *)
        let keyed =
          List.filter_map
            (fun n ->
              match Array.to_list n.args |> List.map (extract_value st) with
              | sub -> Some ((n.fi, sub), (n, sub))
              | exception Error _ -> None)
            cands
        in
        let best =
          List.fold_left
            (fun acc ((key, _) as cand) ->
              match acc with
              | Some ((bkey, _) : (int * term list) * _)
                when compare_keys bkey key <= 0 ->
                acc
              | _ -> Some cand)
            None keyed
        in
        (match best with
        | Some (_, chosen) -> chosen
        | None -> error "e-class %d has no acyclic minimal e-node" cls)
    in
    Hashtbl.replace st.chosen cls n.base;
    let term = node ~cls n.func.Egraph.sym sub in
    Hashtbl.replace st.memo cls term;
    term

and compare_keys (fi1, sub1) (fi2, sub2) =
  let c = Int.compare fi1 fi2 in
  if c <> 0 then c else term_list_compare sub1 sub2

and extract_value st (v : Value.t) : term =
  match v with
  | Eclass id -> extract_class st id
  | Vec elems -> t_vec (Array.to_list elems |> List.map (extract_value st))
  | p -> prim p

(** [extract eg v] extracts the best term for value [v] (an e-class ref, a
    vector, or a primitive).  Returns the term and its cost. *)
let extract eg (v : Value.t) : term * int =
  let st = make eg in
  let v = Egraph.canon eg v in
  (extract_value st v, value_cost st v)

(** [variants st cls n] extracts up to [n] distinct terms of class [cls],
    cheapest first: one per e-node of the class, ordered by cost (children
    always extract optimally; only the root node varies — egglog's
    [extract :variants] behaves the same way). *)
let variants (st : t) cls n : (term * int) list =
  let cls = Egraph.find_class st.eg cls in
  let candidates =
    List.filter_map
      (fun nd ->
        let c = node_cost st nd in
        if c >= infinity_cost then None
        else
          match Array.to_list nd.args |> List.map (extract_value st) with
          | sub -> Some (c, nd, sub)
          | exception Error _ -> None)
      (nodes_of st cls)
  in
  (* cheapest first; ties broken like {!extract_class}, so the listing is
     identical whichever storage engine produced the rows *)
  let sorted =
    List.sort
      (fun (c1, n1, s1) (c2, n2, s2) ->
        let c = Int.compare c1 c2 in
        if c <> 0 then c else compare_keys (n1.fi, s1) (n2.fi, s2))
      candidates
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | (c, nd, sub) :: rest -> (node ~cls nd.func.Egraph.sym sub, c) :: take (k - 1) rest
  in
  take n sorted

(** DAG cost of an extracted term: every distinct e-class is counted once,
    unlike the tree cost, which recounts shared sub-terms at every use.
    This is what the program actually costs once it is in SSA form.  Only
    meaningful for terms produced by [st]'s own extraction. *)
let dag_cost (st : t) (root : term) : int =
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  let rec go t =
    match t.t_class with
    | Some cls when Hashtbl.mem seen cls -> ()
    | cls_opt ->
      (match cls_opt with
      | Some cls ->
        Hashtbl.replace seen cls ();
        total := !total + Option.value ~default:1 (Hashtbl.find_opt st.chosen cls)
      | None -> ());
      List.iter go (children t)
  in
  go root;
  !total

(** Expose the per-class best cost (infinite classes return a large value). *)
let cost_of_class (st : t) cls = class_cost st cls
