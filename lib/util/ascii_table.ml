(** Plain-text table rendering for experiment reports.

    Produces aligned, boxed ASCII tables as well as GitHub-flavoured
    markdown tables (used when regenerating EXPERIMENTS.md sections). *)

type align = Left | Right | Center

type t = {
  title : string option;
  header : string list;
  aligns : align list;
  mutable rows_rev : string list list;
}

let create ?title ?aligns header =
  let aligns =
    match aligns with
    | Some a ->
        if List.length a <> List.length header then
          invalid_arg "Ascii_table.create: aligns/header length mismatch";
        a
    | None -> List.map (fun _ -> Right) header
  in
  { title; header; aligns; rows_rev = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Ascii_table.add_row: row width mismatch";
  t.rows_rev <- row :: t.rows_rev

let rows t = List.rev t.rows_rev

(* Column widths: max over header and all cells. *)
let widths t =
  let all = t.header :: rows t in
  let ncols = List.length t.header in
  let w = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> w.(i) <- Stdlib.max w.(i) (String.length cell)) row)
    all;
  w

let pad align width s =
  let len = String.length s in
  if len >= width then s
  else
    let fill = width - len in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
        let l = fill / 2 in
        String.make l ' ' ^ s ^ String.make (fill - l) ' '

let render_row aligns w row =
  let cells =
    List.mapi (fun i cell -> pad (List.nth aligns i) w.(i) cell) row
  in
  "| " ^ String.concat " | " cells ^ " |"

let separator w =
  "+" ^ String.concat "+" (Array.to_list (Array.map (fun n -> String.make (n + 2) '-') w)) ^ "+"

(** Render as a boxed ASCII table. *)
let to_string t =
  let w = widths t in
  let buf = Buffer.create 256 in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n'
  | None -> ());
  let sep = separator w in
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row t.aligns w t.header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row t.aligns w row);
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.add_string buf sep;
  Buffer.contents buf

(** Render as a GitHub-flavoured markdown table. *)
let to_markdown t =
  let w = widths t in
  let buf = Buffer.create 256 in
  (match t.title with
  | Some title -> Buffer.add_string buf ("**" ^ title ^ "**\n\n")
  | None -> ());
  Buffer.add_string buf (render_row t.aligns w t.header);
  Buffer.add_char buf '\n';
  let dashes =
    List.mapi
      (fun i align ->
        let n = Stdlib.max 3 w.(i) in
        match align with
        | Left -> ":" ^ String.make (n - 1) '-'
        | Right -> String.make (n - 1) '-' ^ ":"
        | Center -> ":" ^ String.make (n - 2) '-' ^ ":")
      t.aligns
  in
  Buffer.add_string buf ("| " ^ String.concat " | " dashes ^ " |");
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row t.aligns w row);
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let print t = print_string (to_string t); print_newline ()

(* Cell formatting helpers shared across reports. *)
let cell_int i = string_of_int i
let cell_float ?(digits = 4) f = Printf.sprintf "%.*g" digits f
let cell_pct f = Printf.sprintf "%.1f%%" (100.0 *. f)
let cell_ratio f = Printf.sprintf "%.3f" f
