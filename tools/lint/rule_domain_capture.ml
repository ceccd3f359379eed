(** domain-capture: a race-detector-lite for [Domain_pool] closures.

    A closure handed to [Domain_pool.map_list] may run on another
    domain.  Assigning ([:=],
    mutable-field [<-], [Array.set]-family sugar) to state bound
    *outside* the closure is therefore an unsynchronised cross-domain
    write — a data race under the OCaml 5 memory model.

    Scope approximation: every name bound by any pattern anywhere
    inside the closure (parameters, lets, match arms, inner funs)
    counts as local.  That over-approximates lexical scope, so the rule
    never false-positives on shadowing, at the cost of missing a
    mutation that precedes a later rebinding of the same name. *)

open Parsetree

let pool_fns = [ "map_list" ]

let pool_call fn =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match List.rev (Lint_rule.lident_parts txt) with
      | f :: qualifier
        when List.mem f pool_fns && List.mem "Domain_pool" qualifier ->
          Some f
      | _ -> None)
  | _ -> None

let rec is_fun_literal e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_fun_literal e
  | _ -> false

let is_assign_op lid =
  match Lint_rule.lident_parts lid with
  | [ ":=" ] | [ "Stdlib"; ":=" ] -> true
  | _ -> false

(* a.(i) <- v / s.[i] <- v desugar to these at parse time *)
let is_indexed_set lid =
  match Lint_rule.lident_parts lid with
  | [ ("Array" | "Bytes" | "String"); "set" ]
  | [ "Stdlib"; ("Array" | "Bytes" | "String"); "set" ] ->
      true
  | _ -> false

let check_closure ~fname closure out =
  let bound = Hashtbl.create 16 in
  let open Ast_iterator in
  let collect =
    {
      default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              Hashtbl.replace bound txt ()
          | _ -> ());
          default_iterator.pat it p);
    }
  in
  collect.expr collect closure;
  let local x = Hashtbl.mem bound x in
  let flag loc what =
    out :=
      Lint_rule.finding loc
        (Printf.sprintf
           "closure passed to Domain_pool.%s mutates %s bound outside the \
            closure: an unsynchronised cross-domain write (data race); \
            return per-element results and combine them after the map \
            instead"
           fname what)
      :: !out
  in
  let ident_name e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        Some (String.concat "." (Lint_rule.lident_parts txt))
    | _ -> None
  in
  let scan =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, lhs) :: _)
            when is_assign_op txt -> (
              match lhs.pexp_desc with
              | Pexp_ident { txt = Lident x; _ } when local x -> ()
              | _ ->
                  flag e.pexp_loc
                    (match ident_name lhs with
                    | Some x -> Printf.sprintf "ref '%s'" x
                    | None -> "a ref cell"))
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, recv) :: _)
            when is_indexed_set txt -> (
              match recv.pexp_desc with
              | Pexp_ident { txt = Lident x; _ } when local x -> ()
              | _ ->
                  flag e.pexp_loc
                    (match ident_name recv with
                    | Some x -> Printf.sprintf "array/bytes '%s'" x
                    | None -> "an array"))
          | Pexp_setfield (recv, fld, _) -> (
              match recv.pexp_desc with
              | Pexp_ident { txt = Lident x; _ } when local x -> ()
              | _ ->
                  flag e.pexp_loc
                    (Printf.sprintf "mutable field '%s'"
                       (String.concat "." (Lint_rule.lident_parts fld.txt))))
          | Pexp_setinstvar ({ txt; _ }, _) ->
              flag e.pexp_loc (Printf.sprintf "instance variable '%s'" txt)
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  scan.expr scan closure

let check ~path:_ src =
  let out = ref [] in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (fn, args) -> (
              match pool_call fn with
              | Some fname ->
                  List.iter
                    (fun (_, arg) ->
                      if is_fun_literal arg then check_closure ~fname arg out)
                    args
              | None -> ())
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  (match src with
  | Lint_rule.Impl s -> it.structure it s
  | Lint_rule.Intf s -> it.signature it s);
  List.rev !out

let rule =
  {
    Lint_rule.name = "domain-capture";
    describe =
      "closures given to Domain_pool must not mutate state bound outside them";
    check_ast = Some check;
    check_files = None;
  }
