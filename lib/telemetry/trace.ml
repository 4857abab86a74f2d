type span = {
  name : string;
  cat : string;
  ts : float;
  dur : float;
  tid : int;
  args : (string * string) list;
}

let dummy = { name = ""; cat = ""; ts = 0.; dur = 0.; tid = 0; args = [] }

type t = {
  buf : span array;
  mutable len : int;  (* live spans, <= capacity *)
  mutable next : int;  (* write cursor *)
  mutable dropped : int;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { buf = Array.make capacity dummy; len = 0; next = 0; dropped = 0 }

let capacity t = Array.length t.buf
let length t = t.len
let dropped t = t.dropped

let add t s =
  let cap = Array.length t.buf in
  t.buf.(t.next) <- s;
  t.next <- (t.next + 1) mod cap;
  if t.len < cap then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) dummy;
  t.len <- 0;
  t.next <- 0;
  t.dropped <- 0

let spans t =
  let cap = Array.length t.buf in
  let first = if t.len < cap then 0 else t.next in
  List.init t.len (fun i -> t.buf.((first + i) mod cap))

let json_of_span s =
  P4ir.Json.Obj
    [ ("name", P4ir.Json.String s.name);
      ("cat", P4ir.Json.String s.cat);
      ("ph", P4ir.Json.String "X");
      ("pid", P4ir.Json.Int 1L);
      ("tid", P4ir.Json.Int (Int64.of_int s.tid));
      ("ts", P4ir.Json.Float s.ts);
      ("dur", P4ir.Json.Float s.dur);
      ("args", P4ir.Json.Obj (List.map (fun (k, v) -> (k, P4ir.Json.String v)) s.args)) ]

let to_chrome_json ~process_name t =
  let meta =
    P4ir.Json.Obj
      [ ("name", P4ir.Json.String "process_name");
        ("ph", P4ir.Json.String "M");
        ("pid", P4ir.Json.Int 1L);
        ("args", P4ir.Json.Obj [ ("name", P4ir.Json.String process_name) ]) ]
  in
  P4ir.Json.Obj
    [ ("displayTimeUnit", P4ir.Json.String "ms");
      ("traceEvents", P4ir.Json.List (meta :: List.map json_of_span (spans t))) ]

let write_file ~process_name t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (P4ir.Json.to_string ~indent:1 (to_chrome_json ~process_name t));
      output_char oc '\n')
