(** E-matching: finding all substitutions under which a rule's premises hold
    in the current e-graph.

    The matcher works on a snapshot {!index} of the e-graph, built once per
    saturation iteration after {!Egraph.rebuild}: for every function we
    collect its canonical rows and index them by output e-class, so that
    nested patterns ([(Div (Mul ?x ?y) ?z)]) can look up the candidate child
    e-nodes in O(1).

    Premises (facts) are solved left to right over a list of candidate
    environments:
    - an application whose head is a declared function is a {e pattern}: it
      is matched against the function's rows (a relational join);
    - an application whose head is a primitive is {e evaluated}; in guard
      position it must produce [true];
    - [(= e1 e2 ...)] unifies the value of all [ei], binding variables that
      are still free.

    Variable conventions: [?x] is always a pattern variable; a bare name is
    resolved as a rule-local or global binding if one exists, and is
    otherwise treated as a pattern variable (Egglog "new syntax"). *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

module Env = Map.Make (String)

type env = Value.t Env.t

(* ------------------------------------------------------------------ *)
(* Persistent index                                                    *)
(* ------------------------------------------------------------------ *)

(* Cached indexes for one function table, over entries of (canonical args,
   canonical output, row stamp): [by_output] buckets rows by output e-class
   (joining a pattern whose result class is known), [by_arg] buckets rows
   by (argument position, argument e-class) (joining a pattern any of whose
   arguments is known).  Buckets are mutable list refs so construction is a
   single linear pass (one hash lookup + cons per row per key).  The cache
   is invalidated by the table's [last_modified] stamp, so across
   saturation iterations only the tables that actually changed are
   re-indexed — untouched tables keep their index verbatim. *)
type fcache = {
  mutable by_output : (int, (Value.t array * Value.t * int) list ref) Hashtbl.t;
  mutable by_arg : (int * int, (Value.t array * Value.t * int) list ref) Hashtbl.t;
  mutable built_at : int;  (* the table's last_modified when built *)
}

(* Growable ascending row-id vector: one column-index bucket.  Kept as
   (buffer, length) so appending new rows between iterations never copies
   what is already there. *)
type ivec = { mutable iv_buf : int array; mutable iv_len : int }

(* open-addressed int -> ivec map for the column-index buckets (ops are
   defined with the generic join below) *)
type imap = {
  mutable im_keys : int array;  (* -1 = empty *)
  mutable im_vals : ivec array;
  mutable im_count : int;
  mutable im_mask : int;
}

(* Per-function column index over an arena table: for every column
   (arguments and output), a hashtable from code to the ascending vector of
   row indices holding that code.  Feeds the generic join.  Rows appended
   since the last build are added incrementally; the index is rebuilt from
   scratch only when the table's row numbering changed ({!Arena.compact})
   or rows died without a compaction yet. *)
type cimap_col = {
  mutable cm_version : int;  (* Arena.version when this column was built *)
  mutable cm_rows : int;  (* Arena.n_rows already indexed *)
  mutable cm_dead : int;  (* Arena.n_dead at the last sync *)
  mutable cm_im : imap;
}

type colindex = {
  ci_cols : cimap_col array;
}

type index = {
  eg : Egraph.t;
  globals : (string, Value.t) Hashtbl.t;
  caches : fcache Symbol.Tbl.t;
  colindexes : colindex Symbol.Tbl.t;
}

(** Build a matching index over [eg].  [globals] are the interpreter's
    top-level let-bindings.  The index is cheap to create and {e persistent}:
    per-function structures are built lazily on first use and reused across
    saturation iterations until the underlying table changes.  Matching
    requires the e-graph to be rebuilt (congruence restored). *)
let make_index eg globals : index =
  { eg; globals; caches = Symbol.Tbl.create 64; colindexes = Symbol.Tbl.create 64 }

let func_of idx sym : Egraph.func =
  match Egraph.find_func_opt idx.eg sym with
  | Some f -> f
  | None -> error "unknown function %s in pattern" (Symbol.name sym)

let bucket_add tbl key entry =
  match Hashtbl.find_opt tbl key with
  | Some bucket -> bucket := entry :: !bucket
  | None -> Hashtbl.add tbl key (ref [ entry ])

let fcache_of idx (f : Egraph.func) : fcache =
  let c =
    match Symbol.Tbl.find_opt idx.caches f.sym with
    | Some c -> c
    | None ->
      let c = { by_output = Hashtbl.create 8; by_arg = Hashtbl.create 8; built_at = min_int } in
      Symbol.Tbl.replace idx.caches f.sym c;
      c
  in
  if c.built_at < f.Egraph.last_modified then begin
    let n =
      max 8
        (match f.Egraph.store with
        | Egraph.S_hash tbl -> Value.Args_tbl.length tbl
        | Egraph.S_arena a -> Arena.n_live a)
    in
    let out_tbl = Hashtbl.create n in
    let arg_tbl = Hashtbl.create n in
    Egraph.iter_rows_stamped idx.eg f (fun cargs out stamp ->
        let entry = (cargs, out, stamp) in
        (match out with
        | Value.Eclass id -> bucket_add out_tbl id entry
        | _ -> ());
        Array.iteri
          (fun i a ->
            match a with Value.Eclass id -> bucket_add arg_tbl (i, id) entry | _ -> ())
          cargs);
    c.by_output <- out_tbl;
    c.by_arg <- arg_tbl;
    c.built_at <- f.Egraph.last_modified
  end;
  c

(** Rows of [f] whose output is in class [cls], with their stamps. *)
let rows_of_output idx (f : Egraph.func) cls : (Value.t array * Value.t * int) list =
  let c = fcache_of idx f in
  match Hashtbl.find_opt c.by_output (Egraph.find_class idx.eg cls) with
  | Some bucket -> !bucket
  | None -> []

let rows_with_output idx sym cls : (Value.t array * Value.t * int) list =
  rows_of_output idx (func_of idx sym) cls

(** Rows of [f] whose [pos]-th argument is in class [cls]. *)
let rows_with_arg idx (f : Egraph.func) pos cls : (Value.t array * Value.t * int) list =
  let c = fcache_of idx f in
  match Hashtbl.find_opt c.by_arg (pos, Egraph.find_class idx.eg cls) with
  | Some bucket -> !bucket
  | None -> []

(* ------------------------------------------------------------------ *)
(* Variable resolution                                                 *)
(* ------------------------------------------------------------------ *)

let is_pattern_var name = String.length name > 0 && name.[0] = '?'

(** Resolve name [x] under [env]: rule-local binding first, then globals. *)
let resolve idx env x =
  match Env.find_opt x env with
  | Some v -> Some v
  | None -> if is_pattern_var x then None else Hashtbl.find_opt idx.globals x

let values_equal idx a b =
  Value.equal a b || Value.equal (Egraph.canon idx.eg a) (Egraph.canon idx.eg b)

(* ------------------------------------------------------------------ *)
(* Expression evaluation (ground expressions inside premises)          *)
(* ------------------------------------------------------------------ *)

(** Try to evaluate [e] to a value under [env].  Returns [None] when the
    expression mentions an unbound variable, a missing table row, or a
    primitive error — all of which mean "this premise does not (yet) hold".
    Constructor applications are {e looked up}, never created: premises must
    not mutate the e-graph. *)
let rec eval_opt idx env (e : Ast.expr) : Value.t option =
  match e with
  | Var x -> resolve idx env x
  | Wildcard -> None
  | Lit l -> Some (value_of_lit l)
  | Call (f, args) -> (
    let rec eval_args acc = function
      | [] -> Some (List.rev acc)
      | a :: rest -> (
        match eval_opt idx env a with
        | Some v -> eval_args (v :: acc) rest
        | None -> None)
    in
    match eval_args [] args with
    | None -> None
    | Some vals -> (
      if Primitives.is_primitive f then
        try Some (Primitives.apply f vals) with Primitives.Error _ -> None
      else
        match Egraph.find_func_opt idx.eg (Symbol.intern f) with
        | Some fn -> Egraph.lookup idx.eg fn (Array.of_list vals)
        | None -> error "unknown function or primitive %s" f))

and value_of_lit : Ast.lit -> Value.t = function
  | L_i64 n -> I64 n
  | L_f64 f -> F64 f
  | L_string s -> Str s
  | L_bool b -> Bool b
  | L_unit -> Unit

(* ------------------------------------------------------------------ *)
(* Pattern matching                                                    *)
(* ------------------------------------------------------------------ *)

(** [match_value idx env pat v] extends [env] in all ways that make [pat]
    match the (canonical) value [v]. *)
let rec match_value idx env (pat : Ast.expr) (v : Value.t) : env list =
  match pat with
  | Wildcard -> [ env ]
  | Lit l -> if values_equal idx (value_of_lit l) v then [ env ] else []
  | Var x -> (
    match resolve idx env x with
    | Some bound -> if values_equal idx bound v then [ env ] else []
    | None -> [ Env.add x (Egraph.canon idx.eg v) env ])
  | Call ("vec-of", pats) -> (
    (* destructuring vector pattern *)
    match v with
    | Vec elems when Array.length elems = List.length pats ->
      List.fold_left
        (fun envs (i, p) ->
          List.concat_map (fun env -> match_value idx env p elems.(i)) envs)
        [ env ]
        (List.mapi (fun i p -> (i, p)) pats)
    | _ -> [])
  | Call (f, _) when Primitives.is_primitive f -> (
    (* computed sub-expression: evaluate and compare *)
    match eval_opt idx env pat with
    | Some pv -> if values_equal idx pv v then [ env ] else []
    | None -> [])
  | Call (f, arg_pats) -> (
    (* child e-node pattern: v must be an e-class containing an f-node *)
    match v with
    | Eclass cls -> (
      let sym = Symbol.intern f in
      match Egraph.find_func_opt idx.eg sym with
      | None -> error "unknown function or primitive %s" f
      | Some fn ->
        List.concat_map
          (fun (args, _, _) -> match_args idx env arg_pats args)
          (rows_of_output idx fn cls))
    | _ -> [])

and match_args idx env (pats : Ast.expr list) (args : Value.t array) : env list =
  if List.length pats <> Array.length args then []
  else
    let rec go envs i = function
      | [] -> envs
      | p :: rest ->
        let envs = List.concat_map (fun env -> match_value idx env p args.(i)) envs in
        if envs = [] then [] else go envs (i + 1) rest
    in
    go [ env ] 0 pats

(** How one table occurrence is restricted in a seminaive delta term.
    [Δ(R₁⋈…⋈Rₖ) = Σₜ (R₁ᵒˡᵈ ⋈ … ⋈ ΔRₜ ⋈ … ⋈ Rₖᶠᵘˡˡ)]: the [t]-th term
    takes the delta at occurrence [t], {e old} rows (stamp ≤ since) at
    occurrences before it and the full table after it, so each combination
    of rows is produced by exactly one term — no cross-term duplicates. *)
type occ_mode =
  | M_full
  | M_delta of int  (** only rows with stamp > since *)
  | M_old of int  (** only rows with stamp ≤ since *)

let occ_admits occ stamp =
  match occ with
  | M_full -> true
  | M_delta ts -> stamp > ts
  | M_old ts -> stamp <= ts

(** First argument pattern already bound to an e-class under [env] (an
    entry point into the by-arg index). *)
let find_bound_arg idx env (arg_pats : Ast.expr list) : (int * int) option =
  let rec go i = function
    | [] -> None
    | p :: rest -> (
      match eval_opt idx env p with
      | Some v -> (
        match Egraph.canon idx.eg v with
        | Value.Eclass id -> Some (i, id)
        | _ -> go (i + 1) rest)
      | None -> go (i + 1) rest)
  in
  go 0 arg_pats

(** Match a top-level pattern [(f pats)] against rows of [f], yielding
    [(env, output)] pairs; [occ] restricts which rows participate.  If some
    argument pattern already has a known e-class value under [env], only
    the rows sharing that argument are scanned (via the by-arg index); a
    delta occurrence scans the journal suffix; otherwise the whole table is
    folded directly — no per-iteration row-list snapshot is materialized. *)
let match_rooted_occ idx env (f : string) (arg_pats : Ast.expr list)
    ~(occ : occ_mode) : (env * Value.t) list =
  let fn = func_of idx (Symbol.intern f) in
  match occ with
  | M_delta ts ->
    let acc = ref [] in
    Egraph.iter_rows_since idx.eg fn ~since:ts (fun args out _stamp ->
        List.iter
          (fun env -> acc := (env, out) :: !acc)
          (match_args idx env arg_pats args));
    !acc
  | M_full | M_old _ -> (
    match find_bound_arg idx env arg_pats with
    | Some (pos, cls) ->
      List.fold_left
        (fun acc (args, out, stamp) ->
          if occ_admits occ stamp then
            List.fold_left
              (fun acc env -> (env, out) :: acc)
              acc
              (match_args idx env arg_pats args)
          else acc)
        []
        (rows_with_arg idx fn pos cls)
    | None ->
      let acc = ref [] in
      Egraph.iter_rows_stamped idx.eg fn (fun args out stamp ->
          if occ_admits occ stamp then
            List.iter
              (fun env -> acc := (env, out) :: !acc)
              (match_args idx env arg_pats args));
      !acc)

let match_rooted idx env f arg_pats = match_rooted_occ idx env f arg_pats ~occ:M_full

(* ------------------------------------------------------------------ *)
(* Fact solving                                                        *)
(* ------------------------------------------------------------------ *)

(** Can [e] be evaluated directly (no free variables)? *)
let rec is_ground idx env (e : Ast.expr) =
  match e with
  | Var x -> resolve idx env x <> None
  | Wildcard -> false
  | Lit _ -> true
  | Call (_, args) -> List.for_all (is_ground idx env) args

let eval_args_opt idx env (args : Ast.expr list) : Value.t list option =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | a :: rest -> (
      match eval_opt idx env a with Some v -> go (v :: acc) rest | None -> None)
  in
  go [] args

(** [solve_expr idx env e target] produces environments under which [e]
    holds.  With [target = Some v], [e] must match/evaluate to [v]; the
    returned value component is the value of [e].

    [~occ] restricts the expression's {e root} table operation to a stamp
    range (see {!occ_mode}) — the seminaive old/delta designation.  Only
    declared-function applications are ever restricted (the compiler only
    designates those as delta atoms). *)
let solve_expr ?(occ : occ_mode = M_full) idx env (e : Ast.expr)
    ~(target : Value.t option) : (env * Value.t) list =
  match (e, target) with
  | Call (f, arg_pats), Some v when (not (Primitives.is_primitive f)) && occ <> M_full -> (
    match Egraph.canon idx.eg v with
    | Eclass cls ->
      let sym = Symbol.intern f in
      ignore (func_of idx sym);
      List.concat_map
        (fun (args, _, stamp) ->
          if occ_admits occ stamp then
            List.map (fun env -> (env, v)) (match_args idx env arg_pats args)
          else [])
        (rows_with_output idx sym cls)
    | v ->
      (* primitive-output table: no by-output index; scan the admitted
         rows and keep those whose output equals the target *)
      List.filter_map
        (fun (env, out) -> if values_equal idx out v then Some (env, v) else None)
        (match_rooted_occ idx env f arg_pats ~occ))
  | Call (f, arg_pats), None when (not (Primitives.is_primitive f)) && occ <> M_full ->
    if is_ground idx env e then
      (* ground table application: the lookup only counts if the row's
         stamp falls in the occurrence's range *)
      match eval_args_opt idx env arg_pats with
      | None -> []
      | Some vals -> (
        let fn = func_of idx (Symbol.intern f) in
        match Egraph.lookup_row idx.eg fn (Array.of_list vals) with
        | Some (v, stamp) when occ_admits occ stamp -> [ (env, v) ]
        | _ -> [])
    else match_rooted_occ idx env f arg_pats ~occ
  | Var x, Some v -> (
    match resolve idx env x with
    | Some bound -> if values_equal idx bound v then [ (env, v) ] else []
    | None -> [ (Env.add x (Egraph.canon idx.eg v) env, v) ])
  | Wildcard, Some v -> [ (env, v) ]
  | Var x, None -> (
    match resolve idx env x with
    | Some v -> [ (env, v) ]
    | None -> error "unconstrained variable in fact: %a" Ast.pp_expr e)
  | Wildcard, None -> error "unconstrained wildcard in fact"
  | Lit l, _ -> (
    let v = value_of_lit l in
    match target with
    | Some tv -> if values_equal idx v tv then [ (env, v) ] else []
    | None -> [ (env, v) ])
  | Call (f, _), _ when Primitives.is_primitive f -> (
    match eval_opt idx env e with
    | None ->
      (* special case: destructuring (vec-of ?a ?b) against a known target *)
      if f = "vec-of" then
        match target with
        | Some v -> List.map (fun env -> (env, v)) (match_value idx env e v)
        | None -> []
      else []
    | Some v -> (
      match target with
      | Some tv -> if values_equal idx v tv then [ (env, v) ] else []
      | None -> [ (env, v) ]))
  | Call (f, arg_pats), Some v ->
    List.map (fun env -> (env, v)) (match_value idx env (Call (f, arg_pats)) v)
  | Call (f, arg_pats), None ->
    if is_ground idx env e then
      (* ground table application: lookup *)
      match eval_opt idx env e with Some v -> [ (env, v) ] | None -> []
    else match_rooted idx env f arg_pats

(** [solve_fact_occs occ_for idx envs fact] filters/extends candidate
    environments; [occ_for j] is the stamp restriction on the [j]-th
    conjunct's root table operation (0 for an [F_expr]). *)
let solve_fact_occs (occ_for : int -> occ_mode) idx (envs : env list)
    (fact : Ast.fact) : env list =
  match fact with
  | F_expr e ->
    List.concat_map
      (fun env ->
        let results = solve_expr ~occ:(occ_for 0) idx env e ~target:None in
        (* guard position: a primitive producing a boolean must be true *)
        List.filter_map
          (fun (env, v) ->
            match v with Value.Bool b -> if b then Some env else None | _ -> Some env)
          results)
      envs
  | F_eq exprs ->
    (* process conjuncts left to right, sharing one target value; a bare
       variable seen before the target is known is deferred and bound at
       the end *)
    let exprs = List.mapi (fun i e -> (i, e)) exprs in
    List.concat_map
      (fun env ->
        let rec go env (target : Value.t option) pending = function
          | [] -> (
            match target with
            | None -> error "unconstrained (=) fact"
            | Some v ->
              let envs =
                List.fold_left
                  (fun envs p ->
                    List.concat_map
                      (fun env ->
                        List.map fst (solve_expr idx env p ~target:(Some v)))
                      envs)
                  [ env ] pending
              in
              envs)
          | (i, e) :: rest -> (
            match e with
            | Ast.Var x when resolve idx env x = None && target = None ->
              go env target (e :: pending) rest
            | _ ->
              let results = solve_expr ~occ:(occ_for i) idx env e ~target in
              List.concat_map (fun (env, v) -> go env (Some v) pending rest) results)
        in
        go env None [] exprs)
      envs

(** [solve_fact idx envs fact] filters/extends candidate environments.
    [?restrict] is the seminaive delta designation: [(j, ts)] restricts the
    [j]-th conjunct's root table operation (0 for an [F_expr]) to rows
    newer than stamp [ts]. *)
let solve_fact ?(restrict : (int * int) option) idx (envs : env list)
    (fact : Ast.fact) : env list =
  let occ_for j =
    match restrict with Some (c, ts) when c = j -> M_delta ts | _ -> M_full
  in
  solve_fact_occs occ_for idx envs fact

(** Solve all premises of a rule; returns the satisfying environments. *)
let solve_facts idx (facts : Ast.fact list) : env list =
  List.fold_left (fun envs f -> if envs = [] then [] else solve_fact idx envs f) [ Env.empty ] facts

(* ------------------------------------------------------------------ *)
(* Seminaive plans                                                     *)
(* ------------------------------------------------------------------ *)

(** One delta candidate: the [a_conj]-th conjunct of the [a_fact]-th
    (flattened) fact is an application of table [a_sym].  [a_order] is the
    join order used when this atom takes the delta: the atom's fact first
    (its small delta scan drives the join), then the remaining facts
    greedily by variable connectivity, so each subsequent fact joins
    through an index instead of enumerating its table. *)
type atom = { a_fact : int; a_conj : int; a_sym : Symbol.t; a_order : int array }

(** A compiled rule body.  [p_facts] is the flattened premise list: every
    declared-function application nested inside another pattern has been
    hoisted into its own [(= ?aux (f ...))] fact (inserted right after its
    parent, so later guards still see its variables bound).  [p_atoms] are
    the table-application occurrences; seminaive matching unions over which
    single atom reads the delta.  [p_eligible] is false when some table
    application hides where the delta cannot reach it (inside a primitive
    application, e.g. under [vec-of]) — such rules fall back to naive
    matching. *)
type plan = {
  p_facts : Ast.fact list;
  p_atoms : atom list;
  p_eligible : bool;
}

let eligible p = p.p_eligible
let plan_facts p = p.p_facts

(** Hoist nested declared-function applications out of pattern positions.

    Placement matters for join cost, so two regimes are used, keyed on
    whether the subtree's variables are all bound by {e earlier} facts:
    - a {e ground} subtree (e.g. [(type-of ?y)] with [?y] bound above)
      becomes O(1) lookups, so its facts go {e before} the parent fact,
      innermost first;
    - a {e binding} subtree (a destructuring pattern like the inner matmul
      of [(linalg_matmul (linalg_matmul ...) ...)]) goes {e after} the
      parent fact, outermost first, so each child's aux var is already
      bound (by the parent's args) and its rows are found through the
      by-output index rather than a full table scan. *)
let compile (facts : Ast.fact list) : plan =
  let counter = ref 0 in
  let eligible = ref true in
  let fresh () =
    incr counter;
    Printf.sprintf "?__sn%d" !counter
  in
  (* variables bound by the facts already emitted *)
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* ground subtrees already hoisted, keyed syntactically: a repeated
     occurrence (e.g. [(type-of ?x)] under both [nrows] and [ncols])
     reuses the first aux var instead of emitting a duplicate fact *)
  let cse : (Ast.expr, string) Hashtbl.t = Hashtbl.create 16 in
  let rec add_vars (e : Ast.expr) =
    match e with
    | Ast.Var x -> Hashtbl.replace bound x ()
    | Ast.Call (_, args) -> List.iter add_vars args
    | Wildcard | Lit _ -> ()
  in
  let rec is_ground_subtree (e : Ast.expr) =
    match e with
    | Ast.Var x -> Hashtbl.mem bound x
    | Ast.Wildcard -> false
    | Ast.Lit _ -> true
    | Ast.Call (_, args) -> List.for_all is_ground_subtree args
  in
  (* inside a primitive application the matcher evaluates, it cannot
     delta-restrict: a table call there makes the rule ineligible *)
  let rec scan_prim_args (e : Ast.expr) =
    match e with
    | Ast.Call (f, args) ->
      if not (Primitives.is_primitive f) then eligible := false;
      List.iter scan_prim_args args
    | Var _ | Wildcard | Lit _ -> ()
  in
  (* ground regime: child facts accumulate onto [pre], innermost first *)
  let rec flatten_ground pre (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Call (f, args) when Primitives.is_primitive f ->
      List.iter scan_prim_args args;
      e
    | Ast.Call (f, args) ->
      let args' =
        List.map
          (fun a ->
            match a with
            | Ast.Call (g, _) when not (Primitives.is_primitive g) -> (
              match Hashtbl.find_opt cse a with
              | Some aux -> Ast.Var aux
              | None ->
                let a' = flatten_ground pre a in
                let aux = fresh () in
                pre := !pre @ [ Ast.F_eq [ Ast.Var aux; a' ] ];
                Hashtbl.add cse a aux;
                Ast.Var aux)
            | _ -> flatten_ground pre a)
          args
      in
      Ast.Call (f, args')
    | Var _ | Wildcard | Lit _ -> e
  in
  (* binding regime: ground children onto [pre]; binding children onto
     [suf], each parent before its own children *)
  let rec flatten_pat pre suf (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Call (f, args) when Primitives.is_primitive f ->
      List.iter scan_prim_args args;
      e
    | Ast.Call (f, args) ->
      let args' =
        List.map
          (fun a ->
            match a with
            | Ast.Call (g, _) when not (Primitives.is_primitive g) ->
              if is_ground_subtree a then
                match Hashtbl.find_opt cse a with
                | Some aux -> Ast.Var aux
                | None ->
                  let a' = flatten_ground pre a in
                  let aux = fresh () in
                  pre := !pre @ [ Ast.F_eq [ Ast.Var aux; a' ] ];
                  Hashtbl.add cse a aux;
                  Ast.Var aux
              else begin
                let aux = fresh () in
                let sub_suf = ref [] in
                let a' = flatten_pat pre sub_suf a in
                suf := !suf @ (Ast.F_eq [ Ast.Var aux; a' ] :: !sub_suf);
                Ast.Var aux
              end
            | _ -> flatten_pat pre suf a)
          args
      in
      Ast.Call (f, args')
    | Var _ | Wildcard | Lit _ -> e
  in
  let flatten_fact (fact : Ast.fact) : Ast.fact list =
    let pre = ref [] and suf = ref [] in
    let fact' =
      match fact with
      | Ast.F_expr e -> Ast.F_expr (flatten_pat pre suf e)
      | Ast.F_eq es -> Ast.F_eq (List.map (flatten_pat pre suf) es)
    in
    let group = !pre @ (fact' :: !suf) in
    (* everything this group can bind is bound for the facts that follow *)
    List.iter
      (function Ast.F_eq es -> List.iter add_vars es | Ast.F_expr e -> add_vars e)
      group;
    group
  in
  let p_facts = List.concat_map flatten_fact facts in
  let facts_arr = Array.of_list p_facts in
  let n_facts = Array.length facts_arr in
  (* --- static join-order analysis -------------------------------------
     [vars.(i)]: every variable fact [i] mentions (all are bound once it is
     solved).  [requires.(i)]: variables that must already be bound when
     fact [i] runs, or the matcher would silently drop environments (vars
     inside evaluated primitive applications) or error (a bare-var fact):
     reordering must never schedule a fact before its requirements. *)
  let exprs_of = function Ast.F_expr e -> [ e ] | Ast.F_eq es -> es in
  let vars_of_fact fact =
    let acc = ref [] in
    let add x = if not (List.mem x !acc) then acc := x :: !acc in
    let rec go e =
      match e with
      | Ast.Var x -> add x
      | Ast.Call (_, args) -> List.iter go args
      | Ast.Wildcard | Ast.Lit _ -> ()
    in
    List.iter go (exprs_of fact);
    !acc
  in
  let requires_of_fact fact =
    let acc = ref [] in
    let add x = if not (List.mem x !acc) then acc := x :: !acc in
    let rec all_vars e =
      match e with
      | Ast.Var x -> add x
      | Ast.Call (_, args) -> List.iter all_vars args
      | Ast.Wildcard | Ast.Lit _ -> ()
    in
    (* [pattern] = this position is matched against a row value (can bind);
       evaluated positions require their variables *)
    let rec go ~pattern e =
      match e with
      | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> ()
      | Ast.Call ("vec-of", args) when pattern ->
        (* destructuring: elements are again pattern positions *)
        List.iter (go ~pattern:true) args
      | Ast.Call (f, args) when Primitives.is_primitive f -> List.iter all_vars args
      | Ast.Call (_, args) -> List.iter (go ~pattern:true) args
    in
    (match fact with
    | Ast.F_expr (Ast.Var x) -> add x  (* bare-var fact errors when unbound *)
    | Ast.F_expr e -> go ~pattern:false e
    | Ast.F_eq es ->
      List.iter (function Ast.Var _ | Ast.Wildcard -> () | e -> go ~pattern:false e) es;
      (* an all-variables (=) errors with nothing bound: require the first *)
      if
        List.for_all (function Ast.Var _ | Ast.Wildcard -> true | _ -> false) es
      then
        match es with Ast.Var x :: _ -> add x | _ -> ());
    !acc
  in
  let fact_vars = Array.map vars_of_fact facts_arr in
  let fact_requires = Array.map requires_of_fact facts_arr in
  let has_table_call fact =
    let rec go e =
      match e with
      | Ast.Call (f, args) ->
        (not (Primitives.is_primitive f)) || List.exists go args
      | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> false
    in
    List.exists go (exprs_of fact)
  in
  let fact_has_table = Array.map has_table_call facts_arr in
  (* greedy schedule starting from [first]: among facts whose requirements
     are met, prefer fully-bound ones (pure filters), then table facts
     sharing a bound variable (indexed joins); facts sharing nothing are
     deferred (cartesian products).  Deadlock-free: the earliest remaining
     fact in the original order always has its requirements met. *)
  let schedule ~first : int array =
    let bound = Hashtbl.create 16 in
    let bind i = List.iter (fun x -> Hashtbl.replace bound x ()) fact_vars.(i) in
    let scheduled = Array.make n_facts false in
    let order = Array.make n_facts 0 in
    scheduled.(first) <- true;
    order.(0) <- first;
    bind first;
    for k = 1 to n_facts - 1 do
      let best = ref (-1) and best_score = ref (-1) in
      for i = 0 to n_facts - 1 do
        if not scheduled.(i) then begin
          let ok = List.for_all (Hashtbl.mem bound) fact_requires.(i) in
          let score =
            if not ok then -1
            else if List.for_all (Hashtbl.mem bound) fact_vars.(i) then 3
            else if fact_has_table.(i) && List.exists (Hashtbl.mem bound) fact_vars.(i)
            then 2
            else if List.exists (Hashtbl.mem bound) fact_vars.(i) then 1
            else 0
          in
          if score > !best_score then begin
            best := i;
            best_score := score
          end
        end
      done;
      let pick =
        if !best_score >= 0 then !best
        else begin
          (* no requirements met anywhere: fall back to the earliest
             remaining fact, whose requirements the original order meets *)
          let rec earliest i = if scheduled.(i) then earliest (i + 1) else i in
          earliest 0
        end
      in
      scheduled.(pick) <- true;
      order.(k) <- pick;
      bind pick
    done;
    order
  in
  let original_order = Array.init n_facts (fun i -> i) in
  let p_atoms =
    List.concat
      (List.mapi
         (fun i (fact : Ast.fact) ->
           let order =
             (* the delta scan can only drive the join if nothing the
                atom's fact requires is missing at the start *)
             if fact_requires.(i) = [] then schedule ~first:i else original_order
           in
           let atom_of j (e : Ast.expr) =
             match e with
             | Ast.Call (f, _) when not (Primitives.is_primitive f) ->
               Some { a_fact = i; a_conj = j; a_sym = Symbol.intern f; a_order = order }
             | _ -> None
           in
           match fact with
           | Ast.F_expr e -> Option.to_list (atom_of 0 e)
           | Ast.F_eq es -> List.filter_map Fun.id (List.mapi atom_of es))
         p_facts)
  in
  { p_facts; p_atoms; p_eligible = !eligible }

(** Compiler-generated auxiliary variable? (see [fresh] in {!compile}) *)
let is_aux_var x = String.length x >= 5 && String.sub x 0 5 = "?__sn"

(** Remove duplicate environments (seminaive delta terms overlap when a
    match involves more than one new row).  Environments are compared on
    the rule's own variables only: actions never mention the compiler's
    aux vars, so environments differing only there are interchangeable
    and keeping one of them also avoids re-applying the same action. *)
let dedupe_envs (envs : env list) : env list =
  match envs with
  | [] | [ _ ] -> envs
  | _ ->
    let seen = Hashtbl.create (List.length envs) in
    List.filter
      (fun env ->
        let key =
          List.filter (fun (x, _) -> not (is_aux_var x)) (Env.bindings env)
        in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      envs

(** Seminaive solve: environments satisfying the plan's premises that
    involve at least one row newer than stamp [since].  Unions, over every
    atom, the term where that atom takes the delta, occurrences before it
    take only old rows and occurrences after it the full table (see
    {!occ_mode}) — each combination of rows is derived by exactly one
    term.  Atoms whose table did not change since [since] have an empty
    delta and are skipped outright, so a rule with no new relevant rows
    costs O(atoms). *)
let solve_plan_legacy idx (p : plan) ~(since : int) : env list =
  let facts = Array.of_list p.p_facts in
  let atoms = Array.of_list p.p_atoms in
  let n_facts = Array.length facts in
  let solve_term t =
    let a = atoms.(t) in
    (* per-fact conjunct→mode map for this term's occurrence restrictions *)
    let fact_occs : (int * occ_mode) list array = Array.make n_facts [] in
    Array.iteri
      (fun u (b : atom) ->
        let mode =
          if u < t then M_old since else if u = t then M_delta since else M_full
        in
        fact_occs.(b.a_fact) <- (b.a_conj, mode) :: fact_occs.(b.a_fact))
      atoms;
    (* follow the atom's precomputed join order: its (small) delta scan
       drives the join, so the remaining facts — greedily ordered by
       variable connectivity — join through the indexes instead of
       enumerating tables *)
    let envs = ref [ Env.empty ] in
    Array.iter
      (fun i ->
        if !envs <> [] then begin
          let occs = fact_occs.(i) in
          let occ_for j =
            match List.assq_opt j occs with Some m -> m | None -> M_full
          in
          envs := solve_fact_occs occ_for idx !envs facts.(i)
        end)
      a.a_order;
    !envs
  in
  let terms = ref [] in
  Array.iteri
    (fun t (a : atom) ->
      match Egraph.find_func_opt idx.eg a.a_sym with
      | Some f when f.Egraph.last_modified > since -> (
        match solve_term t with [] -> () | r -> terms := r :: !terms)
      | Some _ -> ()  (* table untouched since the rule's last scan *)
      | None -> error "unknown function %s in pattern" (Symbol.name a.a_sym))
    atoms;
  match !terms with
  | [] -> []
  | [ r ] -> r
  | rs ->
    (* terms are disjoint by construction; duplicates can still arise
       within one term (distinct rows binding the same rule variables) *)
    dedupe_envs (List.concat rs)

(* ------------------------------------------------------------------ *)
(* Column indexes and the generic join (arena engine)                  *)
(* ------------------------------------------------------------------ *)

(** Column index for [f]'s arena table.  Appends rows indexed since the
    last call; rebuilds from scratch only when the table's row numbering
    changed ({!Arena.compact} bumped the version) or rows died without a
    compaction (never the case during a search phase, which always runs on
    a freshly rebuilt graph). *)
let iv_push v x =
  (if v.iv_len = Array.length v.iv_buf then begin
     let nb = Array.make (max 8 (2 * v.iv_len)) 0 in
     Array.blit v.iv_buf 0 nb 0 v.iv_len;
     v.iv_buf <- nb
   end);
  v.iv_buf.(v.iv_len) <- x;
  v.iv_len <- v.iv_len + 1

(* Open-addressed int -> ivec map for the column-index buckets.  These sit
   on the hottest search paths (one probe per candidate x occurrence), and
   [Hashtbl.find_opt] boxes an option per hit; linear probing over flat
   int keys does not allocate at all.  Keys are arena codes, always >= 0,
   so [-1] marks an empty slot.  No deletion. *)
let im_no_rows : ivec = { iv_buf = [||]; iv_len = 0 }

let im_create () =
  {
    im_keys = Array.make 16 (-1);
    im_vals = Array.make 16 im_no_rows;
    im_count = 0;
    im_mask = 15;
  }

let im_hash k mask = (k * 0x9E3779B1) lsr 4 land mask

(** The bucket for code [k], or the shared empty ivec. *)
let im_find m k : ivec =
  let keys = m.im_keys and mask = m.im_mask in
  let i = ref (im_hash k mask) in
  let ki = ref (Array.unsafe_get keys !i) in
  while !ki <> -1 && !ki <> k do
    i := (!i + 1) land mask;
    ki := Array.unsafe_get keys !i
  done;
  if !ki = k then Array.unsafe_get m.im_vals !i else im_no_rows

let im_grow m =
  let okeys = m.im_keys and ovals = m.im_vals in
  let cap = 2 * Array.length okeys in
  let mask = cap - 1 in
  let keys = Array.make cap (-1) and vals = Array.make cap im_no_rows in
  Array.iteri
    (fun o k ->
      if k <> -1 then begin
        let i = ref (im_hash k mask) in
        while keys.(!i) <> -1 do
          i := (!i + 1) land mask
        done;
        keys.(!i) <- k;
        vals.(!i) <- ovals.(o)
      end)
    okeys;
  m.im_keys <- keys;
  m.im_vals <- vals;
  m.im_mask <- mask

(** The bucket for code [k], created empty if absent. *)
let im_get_add m k : ivec =
  let keys = m.im_keys and mask = m.im_mask in
  let i = ref (im_hash k mask) in
  while keys.(!i) <> -1 && keys.(!i) <> k do
    i := (!i + 1) land mask
  done;
  if keys.(!i) = k then m.im_vals.(!i)
  else begin
    let v = { iv_buf = Array.make 4 0; iv_len = 0 } in
    keys.(!i) <- k;
    m.im_vals.(!i) <- v;
    m.im_count <- m.im_count + 1;
    if 4 * m.im_count > 3 * (mask + 1) then im_grow m;
    v
  end

let im_iter_vals f m =
  Array.iteri (fun i k -> if k <> -1 then f m.im_vals.(i)) m.im_keys

(* Bring one column of an index up to date with table [a], mutating the
   record in place — callers may hold direct references to it (the
   per-plan scratch caches one colindex per atom), so it is never
   replaced wholesale.  Sync is per {e column} and lazy: a rule only
   pays for the columns its join actually probes. *)
let cm_sync (cm : cimap_col) (a : Arena.table) (col : int) : unit =
  let n = Arena.n_rows a in
  let index_rows lo hi =
    for r = lo to hi - 1 do
      if not (Arena.is_dead a r) then
        iv_push (im_get_add cm.cm_im (Arena.col_code a r col)) r
    done;
    cm.cm_rows <- hi
  in
  if
    cm.cm_version = Arena.version a
    && cm.cm_dead = Arena.n_dead a
    && cm.cm_rows <= n
  then begin
    (* no compaction and no new deaths since the last sync: the indexed
       prefix is still valid, only append the new rows *)
    if cm.cm_rows < n then index_rows cm.cm_rows n
  end
  else begin
    let remapped =
      (* the table compacted since the column was built: renumber every
         bucket in place (order-preserving, no hashing) and then append
         the rows added after the compaction *)
      Arena.n_dead a = 0
      &&
      match Arena.remap_from a ~from_version:cm.cm_version with
      | Some remap when cm.cm_rows <= Array.length remap ->
        im_iter_vals
          (fun v ->
            let j = ref 0 in
            for i = 0 to v.iv_len - 1 do
              let nr = remap.(v.iv_buf.(i)) in
              if nr >= 0 then begin
                v.iv_buf.(!j) <- nr;
                incr j
              end
            done;
            v.iv_len <- !j)
          cm.cm_im;
        cm.cm_version <- Arena.version a;
        cm.cm_dead <- 0;
        (* order preservation means the indexed prefix [0, cm_rows) of the
           old numbering maps onto the prefix [0, live) of the new one;
           everything after is unindexed old rows and post-compaction
           appends *)
        let live = ref 0 in
        for r = 0 to cm.cm_rows - 1 do
          if remap.(r) >= 0 then incr live
        done;
        cm.cm_rows <- live.contents;
        if cm.cm_rows < n then index_rows cm.cm_rows n;
        true
      | _ -> false
    in
    if not remapped then begin
      cm.cm_version <- Arena.version a;
      cm.cm_dead <- Arena.n_dead a;
      cm.cm_rows <- 0;
      cm.cm_im <- im_create ();
      index_rows 0 n
    end
  end

(* true when the column can be probed without first syncing it *)
let cm_fresh (cm : cimap_col) (a : Arena.table) =
  cm.cm_version = Arena.version a
  && cm.cm_dead = Arena.n_dead a
  && cm.cm_rows = Arena.n_rows a

let colindex_of idx (f : Egraph.func) (a : Arena.table) : colindex =
  match Symbol.Tbl.find_opt idx.colindexes f.sym with
  | Some c -> c
  | None ->
    let width = Array.length f.Egraph.arg_sorts + 1 in
    let c =
      {
        ci_cols =
          Array.init width (fun _ ->
              {
                cm_version = Arena.version a - 1;
                cm_rows = 0;
                cm_dead = 0;
                cm_im = im_create ();
              });
      }
    in
    Symbol.Tbl.replace idx.colindexes f.sym c;
    c

(* first index in ascending a[lo,hi) with a.(i) >= x *)
let bsearch_ge (a : int array) lo hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get a mid >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* --- compiled generic-join plans ------------------------------------- *)

(** One column of a flat atom: a join variable, a pinned code, or
    unconstrained (wildcard / don't-care output). *)
type gslot = G_var of int | G_lit of int | G_free

(** A flat table atom [(f c\u2080 \u2026 c\u2099\u208b\u2081) \u21a6 c\u2099]: every column is a variable,
    literal, or wildcard — no nested patterns (the plan compiler already
    hoisted those into aux facts). *)
type gatom = { g_sym : Symbol.t; g_slots : gslot array }

(** A rule body compiled for the generic join: flat atoms joined
    variable-by-variable over column indexes, then pure-primitive residual
    facts evaluated on the decoded environments. *)
type gplan = {
  gp_syms : Symbol.t array;  (* each atom's table; its slots are compiled into the fields below *)
  gp_residuals : Ast.fact list;  (* original premise order preserved *)
  gp_var_names : string array;
  gp_occs : (int * int) array array;  (* var id -> (atom, column) occurrences *)
  gp_touched : int array array;  (* var id -> distinct atoms it occurs in *)
  gp_may_dup : bool;
      (* some atom has a wildcard column, so distinct witnessing rows can
         yield the same environment and results need deduplication *)
  gp_emit : int array;
      (* var ids to decode into result environments: only what the rule's
         residuals and actions read (all vars when the consumer is unknown) *)
  gp_join_vars : int;
      (* number of vars with >= 2 occurrences: only these need generic-join
         elimination; the rest are read off surviving rows at emit time *)
  gp_emit_join : (int * int) array;
      (* emitted subset of the join vars, as (var, emit slot) pairs *)
  gp_read : (int * int) array array;
      (* per atom: (emit slot, column) of its emitted single-occurrence vars *)
  gp_lits : (int * int * int) array;
      (* (atom, column, code) of every pinned literal column *)
  gp_slot : int array;  (* var -> its position in gp_emit (-1 not emitted) *)
  gp_join_list : int array;  (* var ids with >= 2 occurrences, ascending *)
  gp_probed : (int * int) array;
      (* (atom, column) pairs the join can probe through [bucket] — literal
         pins and join-variable occurrences; prewarmed before parallel
         search so domains never write to the shared column indexes *)
  gp_bare : string list;
      (* pattern names without a [?] that compiled to join variables
         because no global had that name at compile time *)
  mutable gp_scratch : gscratch option;
      (* per-plan working state reused across searches (a rule is searched
         by at most one domain at a time, so this is race-free); rebuilt
         when the e-graph it was built against is swapped out *)
}

(* All the allocations a generic-join search needs, hoisted out of the
   per-call path: resolved tables, row-set slots, per-variable candidate
   and save/restore buffers, and the emission row. *)
and gscratch = {
  gs_eg : Egraph.t;  (* validity token: compare with the index's graph *)
  gs_funcs : Egraph.func array;
  gs_tables : Arena.table array;
  gs_cidxs : colindex array;
  gs_range_mark : int array;
  gs_rs_buf : int array array;
  gs_rs_lo : int array;
  gs_rs_hi : int array;
  gs_cands : ivec array;
  gs_sv_buf : int array array array;
  gs_sv_lo : int array array;
  gs_sv_hi : int array array;
  gs_ibuf : int array array array;
      (* per (join var, occurrence): persistent intersection output buffer,
         grown on demand — restriction never allocates in steady state *)
  gs_lbuf : int array array;  (* per atom: ditto, for literal pinning *)
  gs_seen : (int, int) Hashtbl.t;
  mutable gs_node_id : int;  (* monotonic across calls: stale [gs_seen]
                                entries never match a live generation *)
  gs_assignment : int array;
  gs_assigned : bool array;
  gs_out : int array;  (* emitted codes, gp_emit order *)
}

(** Try to compile [p] for the generic join.  [None] falls back to the
    env-list matcher: non-arena engine, nested or destructuring patterns,
    multi-pattern equations, global references inside patterns, or
    residuals whose evaluation order the flat join cannot honor. *)
let gcompile ?(keep : string list option) idx (p : plan) : gplan option =
  if Egraph.engine idx.eg <> Egraph.Arena then None
  else begin
    let pool = Egraph.pool idx.eg in
    let vars : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let var_names = ref [] in
    let n_vars = ref 0 in
    let var_id x =
      match Hashtbl.find_opt vars x with
      | Some v -> v
      | None ->
        let v = !n_vars in
        Hashtbl.add vars x v;
        var_names := x :: !var_names;
        incr n_vars;
        v
    in
    (* a name in a pattern slot is a join variable unless it resolves to a
       global (then its value would have to be re-canonicalized every
       iteration — leave those rules to the legacy matcher) *)
    let exception Bail in
    let bare = ref [] in
    let slot_of (e : Ast.expr) : gslot =
      match e with
      | Ast.Wildcard -> G_free
      | Ast.Lit l -> G_lit (Arena.encode pool (value_of_lit l))
      | Ast.Var x ->
        if is_pattern_var x then G_var (var_id x)
        else if Hashtbl.mem idx.globals x then raise Bail
        else begin
          if not (List.mem x !bare) then bare := x :: !bare;
          G_var (var_id x)
        end
      | Ast.Call _ -> raise Bail
    in
    let rec has_declared_call (e : Ast.expr) =
      match e with
      | Ast.Call (f, args) ->
        (not (Primitives.is_primitive f)) || List.exists has_declared_call args
      | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> false
    in
    let exprs_of = function Ast.F_expr e -> [ e ] | Ast.F_eq es -> es in
    let atom_of f args (out : gslot) =
      match Egraph.find_func_opt idx.eg (Symbol.intern f) with
      | None -> raise Bail
      | Some fn ->
        if List.length args <> Array.length fn.Egraph.arg_sorts then raise Bail;
        let slots = Array.make (List.length args + 1) G_free in
        List.iteri (fun i a -> slots.(i) <- slot_of a) args;
        slots.(List.length args) <- out;
        { g_sym = fn.Egraph.sym; g_slots = slots }
    in
    try
      let atoms = ref [] and residuals = ref [] in
      List.iter
        (fun (fact : Ast.fact) ->
          if not (List.exists has_declared_call (exprs_of fact)) then
            residuals := fact :: !residuals
          else
            match fact with
            | Ast.F_expr (Ast.Call (f, args)) when not (Primitives.is_primitive f) ->
              (* bare table application: a bool-returning table is a guard
                 (output pinned to true); anything else is unconstrained *)
              let out =
                match Egraph.find_func_opt idx.eg (Symbol.intern f) with
                | Some fn when fn.Egraph.ret_sort = Egraph.S_bool ->
                  G_lit (Arena.encode pool (Value.Bool true))
                | _ -> G_free
              in
              atoms := atom_of f args out :: !atoms
            | Ast.F_eq [ a; b ] -> (
              let pick call other =
                match call with
                | Ast.Call (f, args) when not (Primitives.is_primitive f) ->
                  atoms := atom_of f args (slot_of other) :: !atoms
                | _ -> raise Bail
              in
              match (a, b) with
              | Ast.Call (f, _), (Ast.Var _ | Ast.Wildcard | Ast.Lit _)
                when not (Primitives.is_primitive f) ->
                pick a b
              | (Ast.Var _ | Ast.Wildcard | Ast.Lit _), Ast.Call (f, _)
                when not (Primitives.is_primitive f) ->
                pick b a
              | _ -> raise Bail)
            | _ -> raise Bail)
        p.p_facts;
      let gp_atoms = Array.of_list (List.rev !atoms) in
      let gp_residuals = List.rev !residuals in
      let gp_var_names = Array.of_list (List.rev !var_names) in
      (* every residual must be runnable after the join, in premise order:
         its evaluated positions may only mention variables bound by atoms
         or by earlier residuals *)
      let bound = Hashtbl.create 16 in
      Array.iter (fun x -> Hashtbl.replace bound x ()) gp_var_names;
      let vars_in e =
        let acc = ref [] in
        let rec go = function
          | Ast.Var x -> acc := x :: !acc
          | Ast.Call (_, args) -> List.iter go args
          | Ast.Wildcard | Ast.Lit _ -> ()
        in
        go e;
        !acc
      in
      List.iter
        (fun (fact : Ast.fact) ->
          let required =
            match fact with
            | Ast.F_expr (Ast.Var x) -> [ x ]
            | Ast.F_expr e -> (
              match e with Ast.Call (_, args) -> List.concat_map vars_in args | _ -> [])
            | Ast.F_eq es ->
              let from_calls =
                List.concat_map
                  (function Ast.Call (_, args) -> List.concat_map vars_in args | _ -> [])
                  es
              in
              if List.for_all (function Ast.Var _ | Ast.Wildcard -> true | _ -> false) es
              then
                match es with Ast.Var x :: _ -> x :: from_calls | _ -> from_calls
              else from_calls
          in
          if not (List.for_all (Hashtbl.mem bound) required) then raise Bail;
          List.iter
            (fun e -> List.iter (fun x -> Hashtbl.replace bound x ()) (vars_in e))
            (exprs_of fact))
        gp_residuals;
      let occs = Array.make (Array.length gp_var_names) [] in
      Array.iteri
        (fun ai ga ->
          Array.iteri
            (fun c slot ->
              match slot with
              | G_var v -> occs.(v) <- (ai, c) :: occs.(v)
              | _ -> ())
            ga.g_slots)
        gp_atoms;
      let gp_occs = Array.map (fun l -> Array.of_list (List.rev l)) occs in
      let gp_touched =
        Array.map
          (fun o ->
            Array.of_list
              (List.sort_uniq compare (List.map fst (Array.to_list o))))
          gp_occs
      in
      let gp_may_dup =
        Array.exists
          (fun ga -> Array.exists (fun s -> s = G_free) ga.g_slots)
          gp_atoms
      in
      let is_join = Array.map (fun o -> Array.length o >= 2) gp_occs in
      let gp_join_vars =
        Array.fold_left (fun n j -> if j then n + 1 else n) 0 is_join
      in
      let gp_emit =
        match keep with
        | None -> Array.init (Array.length gp_var_names) Fun.id
        | Some keep ->
          let needed = Hashtbl.create 16 in
          List.iter (fun x -> Hashtbl.replace needed x ()) keep;
          List.iter
            (fun f ->
              List.iter
                (fun e -> List.iter (fun x -> Hashtbl.replace needed x ()) (vars_in e))
                (exprs_of f))
            gp_residuals;
          let out = ref [] in
          Array.iteri
            (fun i x -> if Hashtbl.mem needed x then out := i :: !out)
            gp_var_names;
          Array.of_list (List.rev !out)
      in
      let emitted = Array.make (Array.length gp_var_names) false in
      Array.iter (fun v -> emitted.(v) <- true) gp_emit;
      let gp_slot = Array.make (Array.length gp_var_names) (-1) in
      Array.iteri (fun i v -> gp_slot.(v) <- i) gp_emit;
      let gp_emit_join = Array.of_list
          (List.map (fun v -> (v, gp_slot.(v)))
             (List.filter (fun v -> is_join.(v)) (Array.to_list gp_emit)))
      in
      let gp_read =
        Array.map
          (fun ga ->
            let acc = ref [] in
            Array.iteri
              (fun c slot ->
                match slot with
                | G_var v when (not is_join.(v)) && emitted.(v) ->
                  acc := (gp_slot.(v), c) :: !acc
                | _ -> ())
              ga.g_slots;
            Array.of_list (List.rev !acc))
          gp_atoms
      in
      let gp_lits =
        let acc = ref [] in
        Array.iteri
          (fun ai ga ->
            Array.iteri
              (fun c slot ->
                match slot with
                | G_lit code -> acc := (ai, c, code) :: !acc
                | _ -> ())
              ga.g_slots)
          gp_atoms;
        Array.of_list (List.rev !acc)
      in
      let gp_join_list =
        let acc = ref [] in
        Array.iteri (fun v j -> if j then acc := v :: !acc) is_join;
        Array.of_list (List.rev !acc)
      in
      let gp_probed =
        let acc = ref [] in
        Array.iteri
          (fun ai ga ->
            Array.iteri
              (fun c slot ->
                match slot with
                | G_lit _ -> acc := (ai, c) :: !acc
                | G_var v when is_join.(v) -> acc := (ai, c) :: !acc
                | _ -> ())
              ga.g_slots)
          gp_atoms;
        Array.of_list (List.rev !acc)
      in
      Some
        {
          gp_syms = Array.map (fun ga -> ga.g_sym) gp_atoms;
          gp_residuals;
          gp_var_names;
          gp_occs;
          gp_touched;
          gp_may_dup;
          gp_emit;
          gp_join_vars;
          gp_emit_join;
          gp_read;
          gp_lits;
          gp_slot;
          gp_join_list;
          gp_probed;
          gp_bare = !bare;
          gp_scratch = None;
        }
    with Bail -> None
  end

let gp_binds_global gp globals = List.exists (Hashtbl.mem globals) gp.gp_bare
let gp_detach gp = { gp with gp_scratch = None }

(** Shared generic-join driver: runs every seminaive term of [gp] against
    the snapshot and calls [flush] once per satisfying assignment, with the
    emitted variables' arena {e codes} filled into a scratch row in
    [gp_emit] order ([flush] must copy what it keeps — and decode).  Deterministic:
    terms in atom order, candidates in row order. *)
let gsolve_core idx (gp : gplan) ~(since : int) ~(flush : int array -> unit) :
    unit =
  let eg = idx.eg in
  let n_atoms = Array.length gp.gp_syms in
  let n_vars = Array.length gp.gp_var_names in
  let gs =
    match gp.gp_scratch with
    | Some gs when gs.gs_eg == eg -> gs
    | _ ->
      let funcs = Array.map (Egraph.find_func eg) gp.gp_syms in
      let tables =
        Array.map
          (fun (f : Egraph.func) ->
            match Egraph.arena_of f with
            | Some a -> a
            | None -> error "generic join requires the arena engine")
          funcs
      in
      let range_mark = Array.make 1 0 in
      let gs =
        {
          gs_eg = eg;
          gs_funcs = funcs;
          gs_tables = tables;
          gs_cidxs = Array.mapi (fun i f -> colindex_of idx f tables.(i)) funcs;
          gs_range_mark = range_mark;
          gs_rs_buf = Array.make n_atoms range_mark;
          gs_rs_lo = Array.make n_atoms 0;
          gs_rs_hi = Array.make n_atoms 0;
          gs_cands =
            Array.init n_vars (fun _ -> { iv_buf = Array.make 8 0; iv_len = 0 });
          gs_sv_buf =
            Array.map (fun t -> Array.make (Array.length t) range_mark) gp.gp_touched;
          gs_sv_lo = Array.map (fun t -> Array.make (Array.length t) 0) gp.gp_touched;
          gs_sv_hi = Array.map (fun t -> Array.make (Array.length t) 0) gp.gp_touched;
          gs_ibuf =
            Array.map (fun occs -> Array.make (max 1 (Array.length occs)) [||]) gp.gp_occs;
          gs_lbuf = Array.make (max 1 n_atoms) [||];
          gs_seen = Hashtbl.create 64;
          gs_node_id = 0;
          gs_assignment = Array.make n_vars (-1);
          gs_assigned = Array.make n_vars false;
          gs_out = Array.make (Array.length gp.gp_emit) (-1);
        }
      in
      gp.gp_scratch <- Some gs;
      gs
  in
  let funcs = gs.gs_funcs and tables = gs.gs_tables and cidxs = gs.gs_cidxs in
  (* columns sync lazily on first probe (the records are mutated in place
     and shared through [idx.colindexes], so one sync serves every rule);
     under parallel search [prewarm] has already synced every probed
     column, making this a read-only fast path *)
  let bucket ai col code : ivec =
    let a = Array.unsafe_get tables ai in
    let cm = (Array.unsafe_get cidxs ai).ci_cols.(col) in
    if not (cm_fresh cm a) then cm_sync cm a col;
    im_find cm.cm_im code
  in
  (* Each atom's current row set lives in three parallel slots, mutated in
     place and save/restored around each candidate: [rs_buf.(u) == range_mark]
     means the contiguous row range [lo, hi), otherwise [rs_buf.(u)] is an
     ascending row array viewed through indices [lo, hi). *)
  let range_mark = gs.gs_range_mark in
  let rs_buf = gs.gs_rs_buf in
  let rs_lo = gs.gs_rs_lo in
  let rs_hi = gs.gs_rs_hi in
  let rs_size u = rs_hi.(u) - rs_lo.(u) in
  (* restrict atom [u]'s row set to rows whose column holds [code]; false
     if it became empty *)
  let restrict u (b : ivec) (bufs : int array array) bi =
    if rs_buf.(u) == range_mark then begin
      let i = bsearch_ge b.iv_buf 0 b.iv_len rs_lo.(u) in
      let j = bsearch_ge b.iv_buf i b.iv_len rs_hi.(u) in
      rs_buf.(u) <- b.iv_buf;
      rs_lo.(u) <- i;
      rs_hi.(u) <- j;
      i < j
    end
    else begin
      let a = rs_buf.(u) and ai = rs_lo.(u) and aj = rs_hi.(u) in
      let nb = b.iv_len in
      if nb = 0 then begin
        rs_hi.(u) <- ai;
        false
      end
      else begin
        let cap = min (aj - ai) nb in
        let out =
          let o = bufs.(bi) in
          if Array.length o >= cap then o
          else begin
            let o = Array.make (max cap ((2 * Array.length o) + 8)) 0 in
            bufs.(bi) <- o;
            o
          end
        in
        (* [out] may alias [a] (buffer reuse along a literal chain): the
           write index never passes the read index, so in-place is fine *)
        let k = ref 0 and i = ref ai and j = ref 0 in
        while !i < aj && !j < nb do
          let x = Array.unsafe_get a !i and y = Array.unsafe_get b.iv_buf !j in
          if x = y then begin
            Array.unsafe_set out !k x;
            incr k;
            incr i;
            incr j
          end
          else if x < y then incr i
          else incr j
        done;
        rs_buf.(u) <- out;
        rs_lo.(u) <- 0;
        rs_hi.(u) <- !k;
        !k > 0
      end
    end
  in
  let iter_rows u tbl k =
    if rs_buf.(u) == range_mark then
      for r = rs_lo.(u) to rs_hi.(u) - 1 do
        if not (Arena.is_dead tbl r) then k r
      done
    else begin
      let a = rs_buf.(u) in
      for t = rs_lo.(u) to rs_hi.(u) - 1 do
        k a.(t)
      done
    end
  in
  (* per-variable scratch: candidate codes and the saved row-set slots of
     the atoms the variable touches (a variable is on at most one branch
     of the elimination tree at a time, so per-var scratch cannot be
     clobbered by recursion) *)
  let cands = gs.gs_cands in
  let sv_buf = gs.gs_sv_buf in
  let sv_lo = gs.gs_sv_lo in
  let sv_hi = gs.gs_sv_hi in
  (* candidate-code dedupe for wide drivers, generation-stamped so it is
     shared by every node of every term — and every call — without
     clearing ([gs_node_id] never repeats) *)
  let seen = gs.gs_seen in
  let assignment = gs.gs_assignment in
  let assigned = gs.gs_assigned in
  let out = gs.gs_out in
  let solve_term t : unit =
    let dn = Arena.n_rows tables.(t) in
    let ds = Arena.delta_start tables.(t) ~since in
    if ds < dn then begin
      let ok = ref true in
      for u = 0 to n_atoms - 1 do
        rs_buf.(u) <- range_mark;
        let tbl = tables.(u) in
        if u = t then begin
          rs_lo.(u) <- ds;
          rs_hi.(u) <- dn
        end
        else begin
          rs_lo.(u) <- 0;
          rs_hi.(u) <- (if u < t then Arena.delta_start tbl ~since else Arena.n_rows tbl)
        end;
        if rs_size u <= 0 then ok := false
      done;
      (* pin literal columns first: cheap, and it shrinks the driver sets *)
      (let lits = gp.gp_lits in
       let i = ref 0 in
       while !ok && !i < Array.length lits do
         let u, c, code = lits.(!i) in
         if not (restrict u (bucket u c code) gs.gs_lbuf u) then ok := false;
         incr i
       done);
      if !ok then begin
        let rec elim n_left =
          if n_left = 0 then begin
            (* all join variables bound: the surviving rows of each atom
               directly enumerate the bindings of its single-occurrence
               variables (usually one row per atom) *)
            Array.iter
              (fun (v, slot) -> out.(slot) <- assignment.(v))
              gp.gp_emit_join;
            let rec rows ai =
              if ai = n_atoms then flush out
              else begin
                let reads = gp.gp_read.(ai) in
                let n_reads = Array.length reads in
                if n_reads = 0 then
                  (* fully bound atom: every column was pinned by a literal
                     or an eliminated join variable, so exactly one (live,
                     bucket-backed) row survives — nothing to read off it *)
                  rows (ai + 1)
                else begin
                  let tbl = tables.(ai) in
                  if rs_buf.(ai) == range_mark then
                    for r = rs_lo.(ai) to rs_hi.(ai) - 1 do
                      if not (Arena.is_dead tbl r) then begin
                        for i = 0 to n_reads - 1 do
                          let slot, c = reads.(i) in
                          out.(slot) <- Arena.col_code tbl r c
                        done;
                        rows (ai + 1)
                      end
                    done
                  else begin
                    let arr = rs_buf.(ai) in
                    for ti = rs_lo.(ai) to rs_hi.(ai) - 1 do
                      let r = Array.unsafe_get arr ti in
                      for i = 0 to n_reads - 1 do
                        let slot, c = reads.(i) in
                        out.(slot) <- Arena.col_code tbl r c
                      done;
                      rows (ai + 1)
                    done
                  end
                end
              end
            in
            rows 0
          end
          else begin
            (* dynamic variable ordering: eliminate the unassigned join
               variable with the smallest occurrence row set, so
               restrictions propagate before wide columns are enumerated.
               Ties break by variable id, then occurrence order —
               deterministic. *)
            let v = ref (-1) and da = ref (-1) and dc = ref (-1) in
            let best = ref max_int in
            let jlist = gp.gp_join_list in
            let n_join = Array.length jlist in
            let w = ref 0 in
            while !best > 1 && !w < n_join do
              let jv = Array.unsafe_get jlist !w in
              (if not assigned.(jv) then begin
                 let occs = gp.gp_occs.(jv) in
                 let k = ref 0 in
                 while !best > 1 && !k < Array.length occs do
                   let a, c = occs.(!k) in
                   let sz = rs_size a in
                   if sz < !best then begin
                     best := sz;
                     v := jv;
                     da := a;
                     dc := c
                   end;
                   incr k
                 done
               end);
              incr w
            done;
            let v = !v and da = !da and dc = !dc in
            let occs = gp.gp_occs.(v) in
            let n_occs = Array.length occs in
            (* distinct codes of the driver column, in row order (keeps the
               search deterministic); hash only when the driver is wide *)
            let cv = cands.(v) in
            cv.iv_len <- 0;
            let small = rs_size da <= 32 in
            if small then
              iter_rows da tables.(da) (fun r ->
                  let code = Arena.col_code tables.(da) r dc in
                  let dup = ref false in
                  for i = 0 to cv.iv_len - 1 do
                    if cv.iv_buf.(i) = code then dup := true
                  done;
                  if not !dup then iv_push cv code)
            else begin
              gs.gs_node_id <- gs.gs_node_id + 1;
              let nid = gs.gs_node_id in
              iter_rows da tables.(da) (fun r ->
                  let code = Arena.col_code tables.(da) r dc in
                  match Hashtbl.find_opt seen code with
                  | Some g when g = nid -> ()
                  | _ ->
                    Hashtbl.replace seen code nid;
                    iv_push cv code)
            end;
            let touched = gp.gp_touched.(v) in
            let n_touched = Array.length touched in
            (* save the pre-candidate row-set slots, restored per candidate *)
            let sb = sv_buf.(v) and sl = sv_lo.(v) and sh = sv_hi.(v) in
            for i = 0 to n_touched - 1 do
              let a = touched.(i) in
              sb.(i) <- rs_buf.(a);
              sl.(i) <- rs_lo.(a);
              sh.(i) <- rs_hi.(a)
            done;
            assigned.(v) <- true;
            for ci = 0 to cv.iv_len - 1 do
              let code = cv.iv_buf.(ci) in
              let ok = ref true in
              let k = ref 0 in
              let ibufs = gs.gs_ibuf.(v) in
              while !ok && !k < n_occs do
                let a, c = occs.(!k) in
                if small && a = da && c = dc then begin
                  (* driver occurrence over a small row set: filter the rows
                     we just enumerated directly — cheaper than probing the
                     column index and intersecting *)
                  let tbl = tables.(a) in
                  let cap = rs_size a in
                  let buf =
                    let o = ibufs.(!k) in
                    if Array.length o >= cap then o
                    else begin
                      let o = Array.make (max cap ((2 * Array.length o) + 8)) 0 in
                      ibufs.(!k) <- o;
                      o
                    end
                  in
                  let n = ref 0 in
                  if rs_buf.(a) == range_mark then
                    for r = rs_lo.(a) to rs_hi.(a) - 1 do
                      if
                        (not (Arena.is_dead tbl r))
                        && Arena.col_code tbl r c = code
                      then begin
                        buf.(!n) <- r;
                        incr n
                      end
                    done
                  else begin
                    let arr = rs_buf.(a) in
                    for t = rs_lo.(a) to rs_hi.(a) - 1 do
                      let r = arr.(t) in
                      if Arena.col_code tbl r c = code then begin
                        buf.(!n) <- r;
                        incr n
                      end
                    done
                  end;
                  rs_buf.(a) <- buf;
                  rs_lo.(a) <- 0;
                  rs_hi.(a) <- !n;
                  if !n = 0 then ok := false
                end
                else if not (restrict a (bucket a c code) ibufs !k) then
                  ok := false;
                incr k
              done;
              if !ok then begin
                assignment.(v) <- code;
                elim (n_left - 1)
              end;
              for i = 0 to n_touched - 1 do
                let a = touched.(i) in
                rs_buf.(a) <- sb.(i);
                rs_lo.(a) <- sl.(i);
                rs_hi.(a) <- sh.(i)
              done
            done;
            assigned.(v) <- false
          end
        in
        elim gp.gp_join_vars
      end
    end
  in
  for t = 0 to n_atoms - 1 do
    if funcs.(t).Egraph.last_modified > since then solve_term t
  done

(** Generic-join solve: environments satisfying the plan that involve at
    least one row newer than stamp [since] ([~since:-1] is the full naive
    join).  Per delta atom [t], the term joins [t]'s delta {e suffix}
    against old {e prefixes} (atoms before [t]) and full tables (after) —
    the same disjoint decomposition as {!solve_plan_legacy}, but executed
    variable-by-variable over column indexes, so no intermediate
    environment lists are materialized. *)
let gsolve idx (gp : gplan) ~(since : int) : env list =
  let results = ref [] in
  let names = gp.gp_var_names in
  let pool = Egraph.pool idx.eg in
  gsolve_core idx gp ~since ~flush:(fun out ->
      let env = ref Env.empty in
      Array.iteri
        (fun i v -> env := Env.add names.(v) (Arena.decode pool out.(i)) !env)
        gp.gp_emit;
      results := !env :: !results);
  let envs = List.rev !results in
  (* terms are disjoint and within-term assignments unique, so duplicates
     only arise through wildcard columns: rows differing in an unbound
     column witness the same environment *)
  let envs = if gp.gp_may_dup then dedupe_envs envs else envs in
  (* residual pure-primitive facts filter (or extend) the decoded
     environments, in premise order *)
  List.fold_left
    (fun envs f -> if envs = [] then [] else solve_fact idx envs f)
    envs gp.gp_residuals

(** Can [gp]'s matches be consumed as packed rows?  Requires no residual
    facts (they extend environments) and no wildcard columns (they require
    deduplication over environments). *)
let gp_packed_ok gp = gp.gp_residuals = [] && not gp.gp_may_dup

(** The emitted variables' names, in packed-row slot order. *)
let gp_slot_names gp = Array.map (fun v -> gp.gp_var_names.(v)) gp.gp_emit

(** The sort of each packed-row slot, read off the variable's first
    pattern occurrence (argument column -> that argument's sort, output
    column -> the function's return sort). *)
let gp_slot_sorts idx gp =
  Array.map
    (fun v ->
      let a, c = gp.gp_occs.(v).(0) in
      let f = Egraph.find_func idx.eg gp.gp_syms.(a) in
      if c < Array.length f.Egraph.arg_sorts then f.Egraph.arg_sorts.(c)
      else f.Egraph.ret_sort)
    gp.gp_emit

(** Like {!gsolve} but returning each match as a flat row of the emitted
    variables' arena codes in {!gp_slot_names} order — no environment
    maps and no decoding, so appliers compiled against the slot order
    work at the code level end to end.  Only valid when
    {!gp_packed_ok}. *)
type packed = { pk_buf : int array; pk_rows : int; pk_width : int }

let gsolve_packed idx (gp : gplan) ~(since : int) : packed =
  let width = Array.length gp.gp_emit in
  let buf = ref (Array.make (max 1 (16 * width)) 0) in
  let n = ref 0 in
  gsolve_core idx gp ~since ~flush:(fun out ->
      let need = (!n + 1) * width in
      if need > Array.length !buf then begin
        let b = Array.make (max need (2 * Array.length !buf)) 0 in
        Array.blit !buf 0 b 0 (!n * width);
        buf := b
      end;
      Array.blit out 0 !buf (!n * width) width;
      incr n);
  { pk_buf = !buf; pk_rows = !n; pk_width = width }

(** [solve_plan idx p ~since] — seminaive solve through the generic join
    when [p] compiles for it (arena engine, flat atoms), else through the
    env-list matcher. *)
let solve_plan ?(gplan : gplan option option = None) idx (p : plan) ~(since : int) :
    env list =
  match gplan with
  | Some (Some gp) -> gsolve idx gp ~since
  | Some None -> solve_plan_legacy idx p ~since
  | None -> (
    match gcompile idx p with
    | Some gp -> gsolve idx gp ~since
    | None -> solve_plan_legacy idx p ~since)

(** Build every per-function structure a rule's search will need —
    column indexes for generic-join rules, row caches for legacy-path
    rules — so the parallel search phase never writes to the shared
    index. *)
let prewarm idx (p : plan) (gp : gplan option) =
  match gp with
  | Some gp ->
    Array.iter
      (fun (ai, col) ->
        match Egraph.find_func_opt idx.eg gp.gp_syms.(ai) with
        | Some f -> (
          match Egraph.arena_of f with
          | Some a ->
            let c = colindex_of idx f a in
            let cm = c.ci_cols.(col) in
            if not (cm_fresh cm a) then cm_sync cm a col
          | None -> ())
        | None -> ())
      gp.gp_probed
  | None ->
    let touch name =
      match Egraph.find_func_opt idx.eg (Symbol.intern name) with
      | Some fn -> ignore (fcache_of idx fn)
      | None -> ()
    in
    let rec go (e : Ast.expr) =
      match e with
      | Ast.Call (f, args) ->
        if not (Primitives.is_primitive f) then touch f;
        List.iter go args
      | Ast.Var _ | Ast.Wildcard | Ast.Lit _ -> ()
    in
    List.iter
      (function Ast.F_expr e -> go e | Ast.F_eq es -> List.iter go es)
      p.p_facts
