(** float-eq: exact equality on floats.

    The numeric theorem checks (Theorem 1.1/1.3 ratios, KKT residuals)
    accumulate rounding error, so [=] / [<>] / polymorphic [compare]
    on a float operand is almost always a latent bug — comparisons must
    go through [Ccache_util.Float_cmp].  Purely syntactic: an operand
    counts as float when it is a float literal, a [(e : float)]
    constraint, or an application of a float-arithmetic primitive.
    [Float.compare] / [Float.equal] (total orders) are not flagged. *)

open Parsetree

let cmp_ops = [ "="; "<>"; "=="; "!="; "compare" ]

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_fns =
  [
    "float_of_int"; "sqrt"; "exp"; "log"; "log10"; "log1p"; "expm1"; "floor";
    "ceil"; "abs_float"; "mod_float"; "atan"; "atan2"; "cos"; "sin"; "tan";
  ]

(* [Float.*] functions that do NOT return float. *)
let float_mod_non_float =
  [
    "compare"; "equal"; "to_int"; "to_string"; "is_nan"; "is_finite";
    "is_integer"; "sign_bit"; "classify_float";
  ]

let rec is_floaty (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Lident "float"; _ }, []); _ }) ->
      true
  | Pexp_constraint (e, _) -> is_floaty e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Lint_rule.lident_parts txt with
      | [ op ] | [ "Stdlib"; op ] ->
          List.mem op float_ops || List.mem op float_fns
      | [ "Float"; f ] | [ "Stdlib"; "Float"; f ] ->
          not (List.mem f float_mod_non_float)
      | _ -> false)
  | _ -> false

let is_cmp lid =
  match Lint_rule.lident_parts lid with
  | [ op ] | [ "Stdlib"; op ] -> List.mem op cmp_ops
  | _ -> false

let check ~path:_ src =
  let out = ref [] in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt; _ }; _ }, ((_ :: _ :: _) as args))
            when is_cmp txt
                 && List.exists (fun (_, a) -> is_floaty a) args ->
              let op = String.concat "." (Lint_rule.lident_parts txt) in
              out :=
                Lint_rule.finding e.pexp_loc
                  (Printf.sprintf
                     "exact float comparison (%s) on a float operand; use \
                      Ccache_util.Float_cmp.approx_zero or justify with \
                      [@lint.allow \"float-eq\"]"
                     op)
                :: !out
          | _ -> ());
          default_iterator.expr it e);
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_constant (Pconst_float _) ->
              out :=
                Lint_rule.finding p.ppat_loc
                  "float literal pattern is an exact equality match; branch \
                   with Ccache_util.Float_cmp instead"
                :: !out
          | _ -> ());
          default_iterator.pat it p);
    }
  in
  (match src with
  | Lint_rule.Impl s -> it.structure it s
  | Lint_rule.Intf s -> it.signature it s);
  List.rev !out

let rule =
  {
    Lint_rule.name = "float-eq";
    describe =
      "=/<>/compare on float operands must go through Ccache_util.Float_cmp";
    check_ast = Some check;
    check_files = None;
  }
