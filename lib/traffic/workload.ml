type flow = (P4ir.Field.t * P4ir.Value.t) list

type source = unit -> Nicsim.Packet.t

let random_value rng field =
  let width = P4ir.Field.width field in
  let raw = Stdx.Prng.next64 rng in
  P4ir.Value.truncate ~width raw

let random_flows rng ~n ~fields =
  Array.init n (fun _ -> List.map (fun f -> (f, random_value rng f)) fields)

let apply_flow pkt flow = List.iter (fun (f, v) -> Nicsim.Packet.set pkt f v) flow

let of_flows ?(zipf_s = 0.) rng flows =
  if Array.length flows = 0 then invalid_arg "Workload.of_flows: empty flow set";
  let sampler =
    if zipf_s > 0. then
      let z = Zipf.create ~n:(Array.length flows) ~s:zipf_s in
      fun () -> Zipf.sample z rng
    else fun () -> Stdx.Prng.int rng (Array.length flows)
  in
  fun () ->
    let pkt = Nicsim.Packet.create () in
    apply_flow pkt flows.(sampler ());
    pkt

let mark_fraction rng ~rate ~field ~value inner () =
  let pkt = inner () in
  if Stdx.Prng.bool rng rate then Nicsim.Packet.set pkt field value;
  pkt

let override ~field ~value inner () =
  let pkt = inner () in
  Nicsim.Packet.set pkt field value;
  pkt
