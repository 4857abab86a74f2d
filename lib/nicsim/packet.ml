type t = {
  mutable eth_src : int64;
  mutable eth_dst : int64;
  mutable eth_type : int64;
  mutable ipv4_src : int64;
  mutable ipv4_dst : int64;
  mutable ipv4_ttl : int64;
  mutable ipv4_proto : int64;
  mutable ipv4_dscp : int64;
  mutable ipv4_len : int64;
  mutable tcp_sport : int64;
  mutable tcp_dport : int64;
  mutable tcp_flags : int64;
  mutable udp_sport : int64;
  mutable udp_dport : int64;
  mutable ingress_port : int64;
  mutable next_tab_id : int64;
  mutable meta : int64 array;
  mutable dropped : bool;
  mutable egress : int option;
  size : int;
}

let create ?(size_bytes = 512) () =
  { eth_src = 0L; eth_dst = 0L; eth_type = 0x0800L; ipv4_src = 0L; ipv4_dst = 0L;
    ipv4_ttl = 64L; ipv4_proto = 6L; ipv4_dscp = 0L; ipv4_len = Int64.of_int size_bytes;
    tcp_sport = 0L; tcp_dport = 0L; tcp_flags = 0L; udp_sport = 0L; udp_dport = 0L;
    ingress_port = 0L; next_tab_id = 0L; meta = Array.make 16 0L; dropped = false;
    egress = None; size = size_bytes }

let size_bytes p = p.size

let ensure_meta p i =
  if i >= Array.length p.meta then begin
    let bigger = Array.make (i + 1) 0L in
    Array.blit p.meta 0 bigger 0 (Array.length p.meta);
    p.meta <- bigger
  end

let get p (f : P4ir.Field.t) =
  match f with
  | P4ir.Field.Eth_src -> p.eth_src
  | P4ir.Field.Eth_dst -> p.eth_dst
  | P4ir.Field.Eth_type -> p.eth_type
  | P4ir.Field.Ipv4_src -> p.ipv4_src
  | P4ir.Field.Ipv4_dst -> p.ipv4_dst
  | P4ir.Field.Ipv4_ttl -> p.ipv4_ttl
  | P4ir.Field.Ipv4_proto -> p.ipv4_proto
  | P4ir.Field.Ipv4_dscp -> p.ipv4_dscp
  | P4ir.Field.Ipv4_len -> p.ipv4_len
  | P4ir.Field.Tcp_sport -> p.tcp_sport
  | P4ir.Field.Tcp_dport -> p.tcp_dport
  | P4ir.Field.Tcp_flags -> p.tcp_flags
  | P4ir.Field.Udp_sport -> p.udp_sport
  | P4ir.Field.Udp_dport -> p.udp_dport
  | P4ir.Field.Ingress_port -> p.ingress_port
  | P4ir.Field.Next_tab_id -> p.next_tab_id
  | P4ir.Field.Meta i ->
    if i < Array.length p.meta then p.meta.(i) else 0L

let set p (f : P4ir.Field.t) v =
  let v = P4ir.Value.truncate ~width:(P4ir.Field.width f) v in
  match f with
  | P4ir.Field.Eth_src -> p.eth_src <- v
  | P4ir.Field.Eth_dst -> p.eth_dst <- v
  | P4ir.Field.Eth_type -> p.eth_type <- v
  | P4ir.Field.Ipv4_src -> p.ipv4_src <- v
  | P4ir.Field.Ipv4_dst -> p.ipv4_dst <- v
  | P4ir.Field.Ipv4_ttl -> p.ipv4_ttl <- v
  | P4ir.Field.Ipv4_proto -> p.ipv4_proto <- v
  | P4ir.Field.Ipv4_dscp -> p.ipv4_dscp <- v
  | P4ir.Field.Ipv4_len -> p.ipv4_len <- v
  | P4ir.Field.Tcp_sport -> p.tcp_sport <- v
  | P4ir.Field.Tcp_dport -> p.tcp_dport <- v
  | P4ir.Field.Tcp_flags -> p.tcp_flags <- v
  | P4ir.Field.Udp_sport -> p.udp_sport <- v
  | P4ir.Field.Udp_dport -> p.udp_dport <- v
  | P4ir.Field.Ingress_port -> p.ingress_port <- v
  | P4ir.Field.Next_tab_id -> p.next_tab_id <- v
  | P4ir.Field.Meta i ->
    ensure_meta p i;
    p.meta.(i) <- v

let is_dropped p = p.dropped
let mark_dropped p = p.dropped <- true
let egress_port p = p.egress
let set_egress p port = p.egress <- Some port

let of_fields ?size_bytes fields =
  let p = create ?size_bytes () in
  List.iter (fun (f, v) -> set p f v) fields;
  p

let copy p = { p with meta = Array.copy p.meta }

let key_string p fields =
  let buf = Buffer.create 32 in
  List.iter
    (fun f ->
      Buffer.add_int64_le buf (get p f);
      Buffer.add_char buf '|')
    fields;
  Buffer.contents buf

let pp fmt p =
  Format.fprintf fmt "pkt{src=%Lx dst=%Lx sport=%Ld dport=%Ld%s}" p.ipv4_src p.ipv4_dst
    p.tcp_sport p.tcp_dport
    (if p.dropped then " DROPPED" else "")
