(* Probability an arrival waits (Erlang-C) for [c] servers at total
   utilization [rho] in [0, 1). *)
let erlang_c ~c ~rho =
  if c <= 0 then invalid_arg "Queueing.erlang_c: c must be positive";
  if rho < 0. || rho >= 1. then invalid_arg "Queueing.erlang_c: rho in [0,1)";
  let a = rho *. float_of_int c in
  (* Sum a^k/k! computed incrementally to avoid overflow. *)
  let term = ref 1.0 in
  let sum = ref 1.0 in
  for k = 1 to c - 1 do
    term := !term *. a /. float_of_int k;
    sum := !sum +. !term
  done;
  let tail = !term *. a /. float_of_int c /. (1. -. rho) in
  tail /. (!sum +. tail)

let expected_sojourn (target : Target.t) ~service_latency ~offered_gbps =
  if service_latency <= 0. then invalid_arg "Queueing.expected_sojourn: bad service latency";
  let capacity = Target.throughput_gbps target ~latency:service_latency in
  if offered_gbps <= 0. then Some service_latency
  else if offered_gbps >= capacity then None
  else begin
    let c = target.Target.num_cores in
    (* Utilization relative to the aggregate service capacity, ignoring
       the line-rate cap (queueing happens at the cores). *)
    let core_capacity = float_of_int c *. target.Target.capacity /. service_latency in
    let rho = offered_gbps /. core_capacity in
    if rho >= 1. then None
    else begin
      let p_wait = erlang_c ~c ~rho in
      let wait = p_wait *. service_latency /. (float_of_int c *. (1. -. rho)) in
      Some (service_latency +. wait)
    end
  end
