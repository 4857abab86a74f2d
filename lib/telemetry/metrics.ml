type counter = { mutable c : int }
type gauge = { mutable g : float; mutable g_set : bool }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hist of Histogram.t

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Hist _ -> "histogram"

let register t name ~make ~select =
  match Hashtbl.find_opt t.tbl name with
  | Some metric -> (
    match select metric with
    | Some m -> m
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s" name (kind_name metric)))
  | None ->
    let metric, v = make () in
    Hashtbl.replace t.tbl name metric;
    v

let counter t name =
  register t name
    ~make:(fun () ->
      let c = { c = 0 } in
      (Counter c, c))
    ~select:(function Counter c -> Some c | _ -> None)

let gauge t name =
  register t name
    ~make:(fun () ->
      let g = { g = 0.; g_set = false } in
      (Gauge g, g))
    ~select:(function Gauge g -> Some g | _ -> None)

let histogram ?sub_bits t name =
  register t name
    ~make:(fun () ->
      let h = Histogram.create ?sub_bits () in
      (Hist h, h))
    ~select:(function Hist h -> Some h | _ -> None)

let inc ?(by = 1) c = c.c <- c.c + by

let set g v =
  g.g <- v;
  g.g_set <- true

let find_counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> Some c.c
  | _ -> None

let find_gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> Some g.g
  | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Hist h) -> Some h
  | _ -> None

let names t = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [])

let merge_prefixed ~prefix ~dst ~src =
  Hashtbl.iter
    (fun name metric ->
      let name = prefix ^ name in
      match metric with
      | Counter c ->
        let d = counter dst name in
        inc ~by:c.c d
      | Gauge g -> if g.g_set then set (gauge dst name) g.g
      | Hist h ->
        let d = histogram ~sub_bits:(Histogram.sub_bits h) dst name in
        Histogram.merge_into ~dst:d ~src:h)
    src.tbl

let merge_into ~dst ~src = merge_prefixed ~prefix:"" ~dst ~src

let sorted_entries t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.tbl [])

let hist_quantiles = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]

(* JSON has no NaN; empty-histogram summaries report null. *)
let json_float f = if Float.is_nan f then P4ir.Json.Null else P4ir.Json.Float f

let to_json t =
  let entries = sorted_entries t in
  let pick f = List.filter_map f entries in
  let counters = pick (function n, Counter c -> Some (n, P4ir.Json.Int (Int64.of_int c.c)) | _ -> None) in
  let gauges = pick (function n, Gauge g -> Some (n, json_float g.g) | _ -> None) in
  let hists =
    pick (function
      | n, Hist h ->
        let fields =
          [ ("count", P4ir.Json.Int (Int64.of_int (Histogram.count h)));
            ("sum", json_float (Histogram.sum h));
            ("mean", json_float (Histogram.mean h));
            ("min", json_float (Histogram.min_value h));
            ("max", json_float (Histogram.max_value h)) ]
          @ List.map (fun (k, q) -> (k, json_float (Histogram.quantile h q))) hist_quantiles
        in
        Some (n, P4ir.Json.Obj fields)
      | _ -> None)
  in
  P4ir.Json.Obj
    [ ("counters", P4ir.Json.Obj counters);
      ("gauges", P4ir.Json.Obj gauges);
      ("histograms", P4ir.Json.Obj hists) ]

let sanitize name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ch
      | _ -> '_')
    name

let prom_float f = if Float.is_nan f then "NaN" else Printf.sprintf "%.9g" f

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let header name kind = Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind) in
  List.iter
    (fun (name, metric) ->
      let pname = sanitize name in
      match metric with
      | Counter c ->
        header pname "counter";
        Buffer.add_string buf (Printf.sprintf "%s %d\n" pname c.c)
      | Gauge g ->
        header pname "gauge";
        Buffer.add_string buf (Printf.sprintf "%s %s\n" pname (prom_float g.g))
      | Hist h ->
        header pname "summary";
        List.iter
          (fun (_, q) ->
            Buffer.add_string buf
              (Printf.sprintf "%s{quantile=\"%g\"} %s\n" pname q
                 (prom_float (Histogram.quantile h q))))
          hist_quantiles;
        Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" pname (prom_float (Histogram.sum h)));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" pname (Histogram.count h)))
    (sorted_entries t);
  Buffer.contents buf
