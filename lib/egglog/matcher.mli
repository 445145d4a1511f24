(** E-matching: finding all substitutions under which a rule's premises
    hold in the current e-graph.

    The matcher works against a persistent {!index}: per-function
    by-output buckets are (re)built lazily only when the function's table
    changed since the bucket was last built, so repeated iterations over a
    mostly-quiescent database cost almost nothing.  Rows are indexed by
    output e-class so nested patterns join in O(1) per candidate.

    Premises are solved left to right over a list of candidate
    environments: declared-function applications are patterns (relational
    joins over their tables), primitive applications are evaluated (and
    must be [true] in guard position), and [(= e1 e2 ...)] unifies the
    values of all conjuncts, binding still-free variables.

    Seminaive matching ({!compile} / {!solve_plan}) unions one term per
    table-application atom: the term's atom scans only the rows stamped
    after a given timestamp (the delta), atoms before it only older rows
    and atoms after it the full table, so every row combination is derived
    by exactly one term — a rule whose tables saw no new rows since its
    last scan is dismissed in O(atoms). *)

exception Error of string

module Env : Map.S with type key = string

type env = Value.t Env.t

type index

(** Build a matching index over the e-graph.  O(1); per-function buckets
    are built lazily on first use and cached until the function's table
    changes.  [globals] are the interpreter's top-level let-bindings. *)
val make_index : Egraph.t -> (string, Value.t) Hashtbl.t -> index

(** Value of an {!Ast.lit}. *)
val value_of_lit : Ast.lit -> Value.t

(** Try to evaluate a ground expression under an environment; [None] when
    it mentions an unbound variable, a missing table row, or a primitive
    error.  Never mutates the e-graph. *)
val eval_opt : index -> env -> Ast.expr -> Value.t option

(** Extend [env] in all ways that make the pattern match the value. *)
val match_value : index -> env -> Ast.expr -> Value.t -> env list

(** Solve one fact against candidate environments.  [restrict], when
    given as [(conj, since)], limits the [conj]-th conjunct (0 for
    [F_expr]) to rows stamped strictly after [since] — the seminaive
    delta restriction. *)
val solve_fact : ?restrict:int * int -> index -> env list -> Ast.fact -> env list

(** Solve all premises of a rule; the satisfying environments. *)
val solve_facts : index -> Ast.fact list -> env list

(** {1 Seminaive plans} *)

(** A compiled rule body: premises flattened so every declared-function
    application is its own atom, plus the list of delta candidates. *)
type plan

(** Flatten and analyse a premise list.  Total per rule, done once. *)
val compile : Ast.fact list -> plan

(** Whether the plan supports seminaive matching (false when a table
    application is nested inside a primitive application, where the delta
    restriction cannot reach it — callers fall back to naive matching). *)
val eligible : plan -> bool

(** The flattened premises (for naive matching of the same plan, keeping
    both paths observationally identical). *)
val plan_facts : plan -> Ast.fact list

(** {1 Generic join (arena engine)} *)

(** A rule body compiled for the worst-case-optimal generic join: flat
    table atoms joined variable-by-variable over per-(function, column)
    indexes of the arena tables, plus pure-primitive residual facts
    evaluated on the decoded environments afterwards. *)
type gplan

(** Try to compile a plan for the generic join.  [None] when the rule
    needs the env-list matcher: non-arena engine, nested or destructuring
    patterns, multi-pattern equations, globals referenced in patterns. *)
val gcompile : ?keep:string list -> index -> plan -> gplan option

(** Whether a name the plan compiled as a join variable (a pattern name
    without [?]) is now bound in [globals].  {!gcompile} would reject
    the plan against those globals, so a caller holding a plan compiled
    earlier must recompile it. *)
val gp_binds_global : gplan -> (string, Value.t) Hashtbl.t -> bool

(** A copy of the plan with its own search scratch: the compiled plan is
    shared, the per-search buffers (and the e-graph they pin) are not. *)
val gp_detach : gplan -> gplan

(** Generic-join seminaive solve ([~since:-1] degenerates to the full
    naive join).  Same disjoint old/delta/full decomposition as the
    env-list path, executed over sorted row-id columns. *)
val gsolve : index -> gplan -> since:int -> env list

(** Whether {!gsolve_packed} may be used for this plan: no residual facts
    and no wildcard columns (those need env-level dedupe). *)
val gp_packed_ok : gplan -> bool

(** The emitted variables' names, in packed-row slot order. *)
val gp_slot_names : gplan -> string array

(** The sort of each packed-row slot. *)
val gp_slot_sorts : index -> gplan -> Egraph.sort_kind array

(** Packed matches: [pk_rows] consecutive rows of [pk_width] arena
    codes, row-major in [pk_buf], in discovery order. *)
type packed = { pk_buf : int array; pk_rows : int; pk_width : int }

(** Like {!gsolve} but the matches land in one flat row-major code
    buffer in {!gp_slot_names} slot order — no environment maps, no
    decoding and no per-match allocation, so appliers compiled against
    the slot order work at the code level end to end.  Only valid when
    {!gp_packed_ok}. *)
val gsolve_packed : index -> gplan -> since:int -> packed

(** Build every per-function structure the rule's search needs (column
    indexes or row caches), so a subsequent parallel search phase never
    writes to the shared index. *)
val prewarm : index -> plan -> gplan option -> unit

(** Environments satisfying the plan that involve at least one row
    stamped strictly after [since].  Requires [eligible].  Results are
    deduplicated.  [?gplan] short-circuits plan dispatch: [Some (Some g)]
    uses the generic join with [g], [Some None] forces the env-list path,
    [None] (default) compiles and dispatches on the fly. *)
val solve_plan :
  ?gplan:gplan option option -> index -> plan -> since:int -> env list

(** The env-list (legacy) solver, regardless of engine. *)
val solve_plan_legacy : index -> plan -> since:int -> env list

