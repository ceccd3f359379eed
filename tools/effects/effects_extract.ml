(** Body analysis: walk a definition's typedtree and produce its seed
    effects plus its (masked) call edges.

    Allocation seeds are syntactic constructions of boxed values
    (tuples, records, non-constant constructors, array literals,
    variants with payloads, closures, lazy/object/first-class-module
    values), and Bigarray element accesses whose kind or layout is not
    concrete in the call's type (see {!boxing_bigarray_access});
    allocating stdlib entry points arrive through the extern oracle
    instead.  Float (un)boxing at function boundaries is below
    the typedtree's resolution and is out of scope — the Gc byte-budget
    tests remain the ground truth there (DESIGN.md §12).

    Masking, applied to both seeds and the edges recorded under it:
    - [\[@effects.allow "cls…"\]] on any expression;
    - the obs-gating idiom: the recording branch of
      [if Ccache_obs.Control.enabled () then …] (or the [else] of
      [if not (enabled ()) …]) is masked [alloc]+[io] — the
      off-vs-on byte-identity CI gate owns that path;
    - arguments of a cold call ([invalid_arg], [failwith], or any node
      marked [\[@@effects.cold\]]): message construction on a path
      that never returns.

    A call whose head is not a resolvable path (a parameter, a record
    field like [h.Policy.on_hit]) seeds [hocall]: the set is a lower
    bound there, which is why the dynamic equivalence gates stay. *)

open Typedtree

type pool_site = {
  site_fn : string;  (** Domain_pool entry point invoked *)
  site_loc : Location.t;
  site_source : string;
  site_in : string;  (** enclosing node id *)
  site_seed : Effect_set.t;  (** closure's direct seeds *)
  site_calls : (string * Effect_set.t) list;
  site_captured : string list;
      (** idents bound outside the closure that it mutates directly *)
}

type extraction = {
  seed : Effect_set.t;
  calls : (string * Effect_set.t) list;  (** callee, mask on that edge *)
  pool_sites : pool_site list;
}

let pool_fns = [ "map_list" ]

let is_pool_call canonical =
  match String.rindex_opt canonical '.' with
  | None -> None
  | Some i ->
      let fn = String.sub canonical (i + 1) (String.length canonical - i - 1) in
      if
        List.mem fn pool_fns
        && String.length canonical > i
        && String.sub canonical 0 i |> fun m ->
           m = "Ccache_util.Domain_pool"
           || (String.length m >= 11
              && String.sub m (String.length m - 11) 11 = "Domain_pool")
      then Some fn
      else None

(** Does [e] mention [Ccache_obs.Control.enabled]?  (the obs-gate
    condition test; [negated] reports an enclosing [not]) *)
let rec obs_gate canonical_of e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
      let name = Effects_seed.strip_stdlib (canonical_of p) in
      match name with
      | "not" -> (
          match
            List.find_map
              (fun (_, a) -> Option.map (obs_gate canonical_of) a)
              args
          with
          | Some (Some _) -> Some true
          | _ -> None)
      | "Ccache_obs.Control.enabled" -> Some false
      | "&&" | "||" ->
          List.find_map
            (fun (_, a) ->
              match a with
              | Some a -> obs_gate canonical_of a
              | None -> None)
            args
      | _ -> None)
  | Texp_ident (p, _, _) when canonical_of p = "Ccache_obs.Control.enabled" ->
      Some false
  | _ -> None

let obs_mask =
  Effect_set.of_list [ Effect_set.Alloc; Effect_set.Io ]

let bigarray_accesses =
  [ "Bigarray.Array1.get"; "Bigarray.Array1.set"; "Bigarray.Array1.unsafe_get";
    "Bigarray.Array1.unsafe_set" ]

(* The element kinds and layouts the native compiler specialises an
   access for (its [Typeopt.bigarray_decode_type] tables). *)
let bigarray_concrete =
  [ "float32_elt"; "float64_elt"; "int8_signed_elt"; "int8_unsigned_elt";
    "int16_signed_elt"; "int16_unsigned_elt"; "int32_elt"; "int64_elt";
    "int_elt"; "nativeint_elt"; "complex32_elt"; "complex64_elt";
    "c_layout"; "fortran_layout" ]

(** Does a call of [callee], whose head has the instantiated type [ty],
    allocate for its element?  An [Array1] read or write compiles to a
    load or store only when its array argument's kind and layout are
    known where it is called: [('a, 'b, 'c) Array1.t -> ...] with ['b]
    and ['c] bound to concrete Bigarray types.  Otherwise it calls the
    C accessor, which boxes an [int32], [int64], [nativeint], float or
    complex element.  A type abbreviation such as a module's alias for
    the array type is already expanded in the instance, because the
    typer expanded it to unify with the primitive's signature; an
    abstract type stands for no kind and counts as polymorphic. *)
let boxing_bigarray_access callee (ty : Types.type_expr) =
  let concrete t =
    match Types.get_desc t with
    | Types.Tconstr (p, [], _) -> List.mem (Path.last p) bigarray_concrete
    | _ -> false
  in
  List.mem (Effects_seed.strip_stdlib callee) bigarray_accesses
  &&
  match Types.get_desc ty with
  | Types.Tarrow (_, arr, _, _) -> (
      match Types.get_desc arr with
      | Types.Tconstr (_, [ _; kind; layout ], _) ->
          not (concrete kind && concrete layout)
      | _ -> true)
  | _ -> true

(** [extract] analyses the bodies of [def] from module [mi].

    [node_forgiven id] looks up the caller-side mask of an already
    collected node (any module), used for cold-call argument masking.
    [global id] tells whether a [Pident] target is module-level
    state. *)
let extract ~(mi : Effects_defs.modinfo) ~(def : Effects_defs.def)
    ~(node_forgiven : string -> Effect_set.t option) : extraction =
  let seeds = ref Effect_set.empty in
  let calls = ref [] in
  let pool_sites = ref [] in
  let canonical_of p =
    let name = Path.name p in
    match String.index_opt name '.' with
    | None -> (
        match Hashtbl.find_opt mi.aliases name with
        | Some c -> c
        | None -> name)
    | Some i ->
        let head = String.sub name 0 i in
        let rest = String.sub name i (String.length name - i) in
        let head =
          match Hashtbl.find_opt mi.aliases head with
          | Some c -> c
          | None -> Cmt_load.canonical_modname head
        in
        head ^ rest
  in
  (* closure-capture scope for the pool-site check: [None] outside a
     pool closure; [Some tbl] = idents bound inside it *)
  let capture_scope : (string, unit) Hashtbl.t option ref = ref None in
  let captured = ref [] in
  let mask = ref Effect_set.empty in
  let seed cls =
    if not (Effect_set.mem !mask cls) then
      seeds := Effect_set.add !seeds cls
  in
  let call callee = calls := (callee, !mask) :: !calls in
  let is_global id = Hashtbl.mem mi.globals (Ident.unique_name id) in
  let local_node id = Hashtbl.find_opt mi.locals (Ident.unique_name id) in
  let is_param id = Hashtbl.mem def.params (Ident.unique_name id) in
  let bound_in_scope id =
    match !capture_scope with
    | None -> true
    | Some tbl -> Hashtbl.mem tbl (Ident.unique_name id)
  in
  (* a write to [target]: global-write effect if the target is
     module-level state (or another module's value); inside a pool
     closure, a *local* target bound outside the closure is a capture.
     Module-level targets are gwrite only — [pool-task-global-write]
     owns them, and double-reporting one write under both rules would
     just be noise. *)
  let write_target (e : expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        if is_global id then seed Effect_set.Gwrite
        else if not (bound_in_scope id) then
          captured := Ident.name id :: !captured
    | Texp_ident (_, _, _) -> seed Effect_set.Gwrite
    | _ -> ()
  in
  let cold_callee canonical =
    Effects_seed.is_cold canonical
    ||
    match node_forgiven canonical with
    | Some f ->
        Effect_set.mem f Effect_set.Alloc && Effect_set.mem f Effect_set.Io
    | None -> false
  in
  let rec walk e =
    let extra_mask = Effects_defs.allow_mask e.exp_attributes in
    if Effect_set.is_empty extra_mask then walk_desc e
    else begin
      let saved = !mask in
      mask := Effect_set.union saved extra_mask;
      walk_desc e;
      mask := saved
    end
  and with_mask m f =
    let saved = !mask in
    mask := Effect_set.union saved m;
    f ();
    mask := saved
  and walk_case : type k. k case -> unit =
   fun c ->
    Option.iter walk c.c_guard;
    walk c.c_rhs
  and walk_default e =
    (* generic recursion into children for shapes [walk_desc] does not
       special-case *)
    let open Tast_iterator in
    let it =
      {
        default_iterator with
        expr = (fun _ child -> walk child);
        value_binding =
          (fun _ vb ->
            match Effects_defs.binding_ident vb.vb_pat with
            | Some (id, _) when local_node id <> None ->
                (* registered sub-definition: its body is analysed as
                   its own node; here it contributes a may-call edge
                   and the closure allocation *)
                seed Effect_set.Alloc;
                call (Option.get (local_node id))
            | _ -> walk vb.vb_expr);
      }
    in
    default_iterator.expr it { e with exp_attributes = [] }
  and walk_desc e =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
        match local_node id with
        | Some node -> call node
        | None -> ())
    | Texp_ident (p, _, _) -> call (canonical_of p)
    | Texp_function _ ->
        seed Effect_set.Alloc;
        walk_default e
    | Texp_tuple _ ->
        seed Effect_set.Alloc;
        walk_default e
    | Texp_record _ ->
        seed Effect_set.Alloc;
        walk_default e
    | Texp_array _ ->
        seed Effect_set.Alloc;
        walk_default e
    | Texp_construct (_, _, args) ->
        if args <> [] then seed Effect_set.Alloc;
        walk_default e
    | Texp_variant (_, Some _) ->
        seed Effect_set.Alloc;
        walk_default e
    | Texp_lazy _ | Texp_object _ | Texp_pack _ ->
        seed Effect_set.Alloc;
        walk_default e
    | Texp_setfield (recv, _, _, v) ->
        write_target recv;
        walk recv;
        walk v
    | Texp_ifthenelse (cond, then_, else_) -> (
        match obs_gate canonical_of cond with
        | Some negated ->
            walk cond;
            if negated then begin
              (* [if not (enabled ()) then hot else obs] *)
              walk then_;
              Option.iter (fun e -> with_mask obs_mask (fun () -> walk e)) else_
            end
            else begin
              with_mask obs_mask (fun () -> walk then_);
              Option.iter walk else_
            end
        | None ->
            walk cond;
            walk then_;
            Option.iter walk else_)
    | Texp_apply (head, args) -> (
        let walk_args () =
          List.iter (fun (_, a) -> Option.iter walk a) args
        in
        match head.exp_desc with
        | Texp_ident (path, _, _) -> (
            let is_param_head =
              match path with Path.Pident id -> is_param id | _ -> false
            in
            if is_param_head then begin
              seed Effect_set.Hocall;
              walk_args ()
            end
            else begin
              let callee =
                match path with
                | Path.Pident id -> (
                    match local_node id with
                    | Some node -> Some node
                    | None ->
                        (* a plain local value of function type *)
                        seed Effect_set.Hocall;
                        None)
                | _ -> Some (canonical_of path)
              in
              (match callee with Some c -> call c | None -> ());
              (match callee with
              | Some c when boxing_bigarray_access c head.exp_type ->
                  seed Effect_set.Alloc
              | _ -> ());
              (* global-write through a known mutator *)
              (match callee with
              | Some c -> (
                  match Effects_seed.mutated_arg c with
                  | Some idx -> (
                      let positional =
                        List.filter_map
                          (fun (lbl, a) ->
                            match lbl with
                            | Asttypes.Nolabel -> a
                            | _ -> None)
                          args
                      in
                      match List.nth_opt positional idx with
                      | Some target -> write_target target
                      | None -> ())
                  | None -> ())
              | None -> ());
              (* pool closure: analyse each literal function argument
                 in its own capture scope *)
              (match callee with
              | Some c -> (
                  match is_pool_call c with
                  | Some fn ->
                      List.iter
                        (fun (_, a) ->
                          match a with
                          | Some ({ exp_desc = Texp_function _; _ } as clo) ->
                              pool_closure fn clo
                          | _ -> ())
                        args
                  | None -> ())
              | None -> ());
              let cold =
                match callee with Some c -> cold_callee c | None -> false
              in
              if cold then
                with_mask
                  (Effect_set.of_list [ Effect_set.Alloc; Effect_set.Io ])
                  walk_args
              else walk_args ()
            end)
        | _ ->
            seed Effect_set.Hocall;
            walk head;
            walk_args ())
    | Texp_match (scrut, cases, _) ->
        walk scrut;
        List.iter walk_case cases
    | Texp_try (body, cases) ->
        walk body;
        List.iter walk_case cases
    | _ -> walk_default e
  and pool_closure fn (clo : expression) =
    (* record the closure's own seeds/calls separately so the checker
       can ask "what does this task transitively do?" *)
    let saved_seeds = !seeds
    and saved_calls = !calls
    and saved_scope = !capture_scope
    and saved_captured = !captured
    and saved_mask = !mask in
    seeds := Effect_set.empty;
    calls := [];
    captured := [];
    mask := Effect_set.empty;
    let bound = Hashtbl.create 16 in
    let open Tast_iterator in
    let binder =
      {
        default_iterator with
        pat =
          (fun (type k) it (p : k general_pattern) ->
            (match p.pat_desc with
            | Tpat_var (id, _) ->
                Hashtbl.replace bound (Ident.unique_name id) ()
            | Tpat_alias (_, id, _) ->
                Hashtbl.replace bound (Ident.unique_name id) ()
            | _ -> ());
            default_iterator.pat it p);
      }
    in
    binder.expr binder clo;
    capture_scope := Some bound;
    walk clo;
    let site =
      {
        site_fn = fn;
        site_loc = clo.exp_loc;
        site_source = def.source;
        site_in = def.id;
        site_seed = Effect_set.diff !seeds (Effect_set.singleton Effect_set.Alloc);
        site_calls = !calls;
        site_captured = List.sort_uniq String.compare !captured;
      }
    in
    pool_sites := site :: !pool_sites;
    (* the closure's effects also belong to the enclosing definition *)
    seeds := Effect_set.union saved_seeds !seeds;
    calls := saved_calls @ !calls;
    capture_scope := saved_scope;
    captured := saved_captured;
    mask := saved_mask
  in
  List.iter walk def.bodies;
  {
    seed = !seeds;
    calls = List.sort_uniq compare !calls;
    pool_sites = !pool_sites;
  }
