(** The preparation phase (paper §5.1): scan the declared Egglog functions
    and register every MLIR operation constructor, recording the expected
    numbers of operands, attributes and regions, and whether it carries a
    result type.

    An Egglog function is an op constructor iff its return sort is [Op] and
    its name is not [Value].  Its MLIR op name is obtained by stripping an
    optional variadic suffix [_<n>] and replacing the first underscore with
    a dot ([func_call_3] -> [func.call]). *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type op_sig = {
  egg_name : string;  (** the Egglog function, e.g. "func_call_3" *)
  mlir_name : string;  (** the MLIR op, e.g. "func.call" *)
  n_operands : int;
  n_attrs : int;
  n_regions : int;
  has_type : bool;  (** trailing [Type] parameter = single result *)
}

type t = {
  by_egg : (string, op_sig) Hashtbl.t;
  by_mlir : (string * int, op_sig list) Hashtbl.t;
      (** key: (mlir op name, operand count) *)
}

(** [split_variadic name] strips a trailing [_<int>] suffix. *)
let split_variadic name =
  match String.rindex_opt name '_' with
  | Some i when i < String.length name - 1 ->
    let suffix = String.sub name (i + 1) (String.length name - i - 1) in
    if String.for_all (fun c -> c >= '0' && c <= '9') suffix then
      (String.sub name 0 i, Some (int_of_string suffix))
    else (name, None)
  | _ -> (name, None)

(** [mlir_name_of_egg name] maps an Egglog function name to the MLIR op
    name: strip variadic suffix, then dialect-dot at the first underscore. *)
let mlir_name_of_egg name =
  let base, _ = split_variadic name in
  match String.index_opt base '_' with
  | Some i ->
    String.sub base 0 i ^ "." ^ String.sub base (i + 1) (String.length base - i - 1)
  | None -> base

let sort_kind_name (k : Egglog.Egraph.sort_kind) =
  match k with Egglog.Egraph.S_eq n -> Some n | _ -> None

(** Derive the signature of one Egglog op constructor, enforcing the
    canonical parameter order (operands, attributes, regions, result type). *)
let sig_of_function (f : Egglog.Egraph.func) : op_sig option =
  let name = Egglog.Symbol.name f.Egglog.Egraph.sym in
  match sort_kind_name f.Egglog.Egraph.ret_sort with
  | Some "Op" when name <> "Value" ->
    let args = Array.to_list f.Egglog.Egraph.arg_sorts in
    let arg_names = List.map sort_kind_name args in
    (* phases: 0 = operands, 1 = attrs, 2 = regions, 3 = type *)
    let phase = ref 0 in
    let n_operands = ref 0 and n_attrs = ref 0 and n_regions = ref 0 in
    let has_type = ref false in
    List.iter
      (fun s ->
        match s with
        | Some "Op" ->
          if !phase > 0 then
            error "%s: operand (Op) parameter after attributes/regions" name;
          incr n_operands
        | Some "AttrPair" ->
          if !phase > 1 then error "%s: AttrPair parameter after regions" name;
          phase := 1;
          incr n_attrs
        | Some "Region" ->
          if !phase > 2 then error "%s: Region parameter after the type" name;
          phase := 2;
          incr n_regions
        | Some "Type" ->
          if !has_type then error "%s: more than one trailing Type parameter" name;
          phase := 3;
          has_type := true
        | _ ->
          error "%s: unsupported parameter sort in an op constructor" name)
      arg_names;
    (match split_variadic name with
    | _, Some n when n <> !n_operands ->
      error "%s: variadic suffix %d does not match %d Op parameters" name n !n_operands
    | _ -> ());
    Some
      {
        egg_name = name;
        mlir_name = mlir_name_of_egg name;
        n_operands = !n_operands;
        n_attrs = !n_attrs;
        n_regions = !n_regions;
        has_type = !has_type;
      }
  | _ -> None

(** Scan all functions declared in [eg] and build the registry. *)
let scan (eg : Egglog.Egraph.t) : t =
  let t = { by_egg = Hashtbl.create 64; by_mlir = Hashtbl.create 64 } in
  List.iter
    (fun f ->
      match sig_of_function f with
      | None -> ()
      | Some s ->
        Hashtbl.replace t.by_egg s.egg_name s;
        let key = (s.mlir_name, s.n_operands) in
        let existing = Option.value ~default:[] (Hashtbl.find_opt t.by_mlir key) in
        Hashtbl.replace t.by_mlir key (s :: existing))
    (Egglog.Egraph.functions eg);
  t

(** Signature for an Egglog function name. *)
let find_egg t name = Hashtbl.find_opt t.by_egg name

(** Signature for an MLIR op with a given operand and result count. *)
let find_mlir t ~name ~n_operands ~n_results =
  match Hashtbl.find_opt t.by_mlir (name, n_operands) with
  | None -> None
  | Some sigs ->
    List.find_opt (fun s -> s.has_type = (n_results = 1)) sigs

(** All registered op signatures. *)
let all t = Hashtbl.fold (fun _ s acc -> s :: acc) t.by_egg []

let n_args s = s.n_operands + s.n_attrs + s.n_regions

let make_type_of_rules (typed : op_sig list) : Egglog.Ast.command list =
  let rule_for (s : op_sig) : Egglog.Ast.command =
    let vars = List.init (n_args s) (fun i -> Egglog.Ast.Var (Printf.sprintf "?a%d" i)) in
    let pat = Egglog.Ast.Call (s.egg_name, vars @ [ Var "?t" ]) in
    Egglog.Ast.C_rule
      {
        name = Some ("type-of-" ^ s.egg_name);
        facts = [ F_eq [ Var "?e"; pat ] ];
        actions = [ A_set (Call ("type-of", [ Var "?e" ]), Var "?t") ];
        ruleset = None;
      }
  in
  let value_rule : Egglog.Ast.command =
    C_rule
      {
        name = Some "type-of-Value";
        facts = [ F_eq [ Var "?e"; Call ("Value", [ Var "?i"; Var "?t" ]) ] ];
        actions = [ A_set (Call ("type-of", [ Var "?e" ]), Var "?t") ];
        ruleset = None;
      }
  in
  value_rule :: List.map rule_for typed

(* The last result and the (constructor, arity) list it was made from:
   engines loaded with the same op constructors, as kept engine
   templates usually are, then share one copy of the rules. *)
let type_of_memo : ((string * int) list * Egglog.Ast.command list) option ref = ref None

(** Auto-generated [type-of] propagation rules: for every op constructor
    with a result type, [(rule ((= ?e (op ?a1 ... ?t))) ((set (type-of ?e) ?t)))],
    plus the rule for [Value] (paper §6.2 relies on these). *)
let type_of_rules (t : t) : Egglog.Ast.command list =
  let typed = all t |> List.filter (fun s -> s.has_type) in
  let key = List.map (fun s -> (s.egg_name, n_args s)) typed in
  match !type_of_memo with
  | Some (k, rules) when k = key -> rules
  | _ ->
    let rules = make_type_of_rules typed in
    type_of_memo := Some (key, rules);
    rules
