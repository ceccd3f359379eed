(** Definition discovery: turns a loaded [.cmt] unit into analysis
    nodes.

    Nodes are
    - every toplevel [let] (including inside nested modules, prefixed
      [Lib.Module.Sub.name]), and
    - every *named local function* ([let f = fun …] anywhere in a
      toplevel body): naming them keeps intra-module helper calls
      ([touch] → [sync_top]) resolved instead of collapsing to opaque
      higher-order calls, and it is what lets hot-path contracts land
      on closures like [Alg_fast.touch] that never escape as toplevel
      values.

    Also collected per module:
    - local module aliases ([module Heap = Ccache_util.Indexed_heap]):
      the typedtree records uses as [Heap.create], so call paths are
      expanded through this map before they become graph keys.  A
      same-file submodule ([module Step = struct … end]) is an alias
      of its own full path, so [Step.step] called from later toplevel
      code resolves to the node [Lib.Module.Step.step];
    - the set of toplevel value idents — the "module-level mutable
      state" universe for the global-write effect class.

    Contract and masking attributes (read from [vb_attributes], which
    dune's [-bin-annot] preserves):
    - [\[@@effects.pure\]] / [\[@@effects.no_alloc\]] /
      [\[@@effects.deterministic\]] — declared contracts;
    - [\[@@effects.amortized_alloc\]] — callers do not inherit [alloc]
      (amortised growth paths);
    - [\[@@effects.cold\]] — callers do not inherit [alloc]/[io]
      (unconditional error paths);
    - [\[@@effects.forgive "cls…"\]] — explicit caller-side mask (the
      sanctioned [Ccache_obs.Clock] sinks forgive [time]). *)

open Typedtree

type contract = Pure | No_alloc | Deterministic

let contract_name = function
  | Pure -> "pure"
  | No_alloc -> "no_alloc"
  | Deterministic -> "deterministic"

(** Effect classes a contract forbids. *)
let forbidden = function
  | Pure ->
      Effect_set.of_list [ Time; Rand; Io; Gwrite; Spawn ]
  | No_alloc -> Effect_set.of_list [ Alloc ]
  | Deterministic -> Effect_set.of_list [ Time; Rand; Spawn ]

type def = {
  id : string;
  source : string;
  loc : Location.t;
  contracts : contract list;
  forgiven : Effect_set.t;
  params : (string, unit) Hashtbl.t;  (** [Ident.unique_name] of formals *)
  bodies : expression list;  (** body with outer lambda layers stripped *)
  toplevel : bool;
  arrow : bool;
      (** a function (lambda, or function-typed alias): callers inherit
          its effects.  Non-arrow bindings are plain values — their
          recorded effects happened once at module initialisation, so a
          mere reference must not re-charge them to the reader. *)
}

type modinfo = {
  unit_ : Cmt_load.unit_;
  defs : def list;
  aliases : (string, string) Hashtbl.t;
      (** local module name → canonical path prefix *)
  globals : (string, unit) Hashtbl.t;
      (** [Ident.unique_name] of toplevel values (gwrite targets) *)
  locals : (string, string) Hashtbl.t;
      (** [Ident.unique_name] → node id, every registered def *)
}

(* ---- attribute payloads ---- *)

let string_payload (a : Parsetree.attribute) =
  match a.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let parse_attrs (attrs : Parsetree.attributes) =
  List.fold_left
    (fun (contracts, forgiven) (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "effects.pure" -> (Pure :: contracts, forgiven)
      | "effects.no_alloc" -> (No_alloc :: contracts, forgiven)
      | "effects.deterministic" -> (Deterministic :: contracts, forgiven)
      | "effects.amortized_alloc" ->
          (contracts, Effect_set.add forgiven Effect_set.Alloc)
      | "effects.cold" ->
          ( contracts,
            Effect_set.union forgiven
              (Effect_set.of_list [ Effect_set.Alloc; Effect_set.Io ]) )
      | "effects.forgive" -> (
          match string_payload a with
          | Some spec -> (
              match Effect_set.parse spec with
              | Ok s -> (contracts, Effect_set.union forgiven s)
              | Error cls ->
                  Printf.ksprintf failwith
                    "[@@effects.forgive]: unknown effect class %S" cls)
          | None -> (contracts, forgiven))
      | _ -> (contracts, forgiven))
    ([], Effect_set.empty) attrs

(** Classes masked inside an expression by [\[@effects.allow "cls…"\]]. *)
let allow_mask (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      if a.attr_name.txt = "effects.allow" then
        match string_payload a with
        | Some spec -> (
            match Effect_set.parse spec with
            | Ok s -> Effect_set.union acc s
            | Error cls ->
                Printf.ksprintf failwith
                  "[@effects.allow]: unknown effect class %S" cls)
        | None -> acc
      else acc)
    Effect_set.empty attrs

(* ---- pattern idents ---- *)

let pat_idents : type k. k general_pattern -> Ident.t list =
 fun p ->
  let acc = ref [] in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      pat =
        (fun (type k2) it (p : k2 general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> acc := id :: !acc
          | Tpat_alias (_, id, _) -> acc := id :: !acc
          | _ -> ());
          default_iterator.pat it p);
    }
  in
  it.pat it p;
  !acc

(** Strip the outer lambda layers of a definition: collect formal
    idents, return the real bodies (a multi-clause [function] yields
    one body per clause, plus guards). *)
let strip_function e =
  let params = Hashtbl.create 8 in
  let add id = Hashtbl.replace params (Ident.unique_name id) () in
  let rec go e =
    match e.exp_desc with
    | Texp_function { param; cases; _ } -> (
        add param;
        List.iter (fun c -> List.iter add (pat_idents c.c_lhs)) cases;
        match cases with
        | [ { c_guard = None; c_rhs; _ } ] -> go c_rhs
        | _ ->
            List.concat_map
              (fun c -> Option.to_list c.c_guard @ [ c.c_rhs ])
              cases)
    | _ -> [ e ]
  in
  let bodies = go e in
  (params, bodies)

let is_function e =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* The single ident bound by a [let name = ...] binding.  A plain
   binding is [Tpat_var]; a constrained one ([let name : t = ...])
   elaborates to [Tpat_alias] over the coerced pattern, with the
   constraint in [pat_extra] — both name exactly one value. *)
let binding_ident (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, { txt = name; _ }) -> Some (id, name)
  | Tpat_alias (_, id, { txt = name; _ }) -> Some (id, name)
  | _ -> None

(* ---- module walk ---- *)

let collect (unit_ : Cmt_load.unit_) : modinfo =
  let aliases = Hashtbl.create 8 in
  let globals = Hashtbl.create 32 in
  let locals = Hashtbl.create 64 in
  let taken = Hashtbl.create 64 in
  let defs = ref [] in
  let fresh_id base =
    match Hashtbl.find_opt taken base with
    | None ->
        Hashtbl.replace taken base 1;
        base
    | Some n ->
        Hashtbl.replace taken base (n + 1);
        Printf.sprintf "%s#%d" base (n + 1)
  in
  let canonical_path p =
    let name = Path.name p in
    match String.index_opt name '.' with
    | None -> (
        match Hashtbl.find_opt aliases name with
        | Some c -> c
        | None -> Cmt_load.canonical_modname name)
    | Some i ->
        let head = String.sub name 0 i in
        let rest = String.sub name i (String.length name - i) in
        let head =
          match Hashtbl.find_opt aliases head with
          | Some c -> c
          | None -> Cmt_load.canonical_modname head
        in
        head ^ rest
  in
  let register ~toplevel ~prefix (vb : value_binding) id name =
    let node_id = fresh_id (prefix ^ "." ^ name) in
    Hashtbl.replace locals (Ident.unique_name id) node_id;
    if toplevel then Hashtbl.replace globals (Ident.unique_name id) ();
    let contracts, forgiven = parse_attrs vb.vb_attributes in
    let params, bodies = strip_function vb.vb_expr in
    let arrow =
      Hashtbl.length params > 0
      ||
      match Types.get_desc vb.vb_expr.exp_type with
      | Types.Tarrow _ -> true
      | _ -> false
    in
    defs :=
      {
        id = node_id;
        source = unit_.source;
        loc = vb.vb_loc;
        contracts = List.rev contracts;
        forgiven;
        params;
        bodies;
        toplevel;
        arrow;
      }
      :: !defs
  in
  (* named local functions (and any annotated local binding) become
     nodes of their own; module prefix only, so contract targets read
     [Lib.Module.fn] *)
  let register_locals ~prefix (vb : value_binding) =
    let open Tast_iterator in
    let it =
      {
        default_iterator with
        value_binding =
          (fun it vb ->
            (match binding_ident vb.vb_pat with
            | Some (id, name) ->
                let contracts, _ = parse_attrs vb.vb_attributes in
                if is_function vb.vb_expr || contracts <> [] then
                  register ~toplevel:false ~prefix vb id name
            | None -> ());
            default_iterator.value_binding it vb);
      }
    in
    it.expr it vb.vb_expr
  in
  let rec walk_structure prefix (str : structure) =
    List.iter
      (fun (item : structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match binding_ident vb.vb_pat with
                | Some (id, name) ->
                    register ~toplevel:true ~prefix vb id name;
                    register_locals ~prefix vb
                | None -> ())
              vbs
        | Tstr_module mb -> walk_module prefix mb
        | Tstr_recmodule mbs -> List.iter (walk_module prefix) mbs
        | _ -> ())
      str.str_items
  and walk_module prefix (mb : module_binding) =
    match (mb.mb_id, mb.mb_name.txt) with
    | Some _, Some name -> (
        let rec unwrap (me : module_expr) =
          match me.mod_desc with
          | Tmod_constraint (me, _, _, _) -> unwrap me
          | d -> d
        in
        match unwrap mb.mb_expr with
        | Tmod_ident (p, _) -> Hashtbl.replace aliases name (canonical_path p)
        | Tmod_structure s ->
            (* code after the submodule calls [Sub.f]: resolve it to
               the node [Lib.Module.Sub.f] *)
            Hashtbl.replace aliases name (prefix ^ "." ^ name);
            walk_structure (prefix ^ "." ^ name) s
        | _ -> ())
    | _ -> ()
  in
  walk_structure unit_.modname unit_.structure;
  { unit_; defs = List.rev !defs; aliases; globals; locals }
