(** Flat metrics dump: JSON (machines) and markdown (humans).

    Both renderings iterate the snapshot's name-sorted lists, so the
    output is byte-stable for a given snapshot regardless of how many
    domains recorded into it. *)

module J = Obs_json

let hist_json (h : Metrics.hist_snapshot) =
  Printf.sprintf "{\"bounds\":[%s],\"counts\":[%s],\"sum\":%s,\"count\":%d}"
    (String.concat "," (Array.to_list (Array.map J.num h.Metrics.bounds)))
    (String.concat ","
       (Array.to_list (Array.map string_of_int h.Metrics.counts)))
    (J.num h.Metrics.sum) h.Metrics.count

let section buf name render items =
  Buffer.add_string buf ("\"" ^ name ^ "\":{");
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    ";
      Buffer.add_string buf (J.str k);
      Buffer.add_char buf ':';
      Buffer.add_string buf (render v))
    items;
  Buffer.add_string buf "\n  }"

let to_json (s : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  ";
  section buf "counters" string_of_int s.Metrics.counters;
  Buffer.add_string buf ",\n  ";
  section buf "gauges"
    (fun (g : Metrics.gauge_snapshot) -> J.num g.Metrics.g_value)
    s.Metrics.gauges;
  Buffer.add_string buf ",\n  ";
  section buf "histograms" hist_json s.Metrics.hists;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let to_markdown (s : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# Metrics\n\n## Counters\n\n";
  Buffer.add_string buf "| name | count |\n| :--- | ---: |\n";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "| %s | %d |\n" k v))
    s.Metrics.counters;
  Buffer.add_string buf "\n## Gauges\n\n| name | value |\n| :--- | ---: |\n";
  List.iter
    (fun (k, (g : Metrics.gauge_snapshot)) ->
      Buffer.add_string buf (Printf.sprintf "| %s | %g |\n" k g.Metrics.g_value))
    s.Metrics.gauges;
  Buffer.add_string buf
    "\n## Histograms\n\n| name | count | sum | mean |\n| :--- | ---: | ---: | ---: |\n";
  List.iter
    (fun (k, (h : Metrics.hist_snapshot)) ->
      let mean =
        if h.Metrics.count = 0 then 0.0
        else h.Metrics.sum /. float_of_int h.Metrics.count
      in
      Buffer.add_string buf
        (Printf.sprintf "| %s | %d | %g | %g |\n" k h.Metrics.count
           h.Metrics.sum mean))
    s.Metrics.hists;
  Buffer.contents buf
