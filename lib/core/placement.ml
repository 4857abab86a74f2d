type requirement = Any | Needs_cpu | Needs_asic

let naive _prog ~require id =
  match require id with
  | Needs_cpu -> Costmodel.Cost.Cpu
  | Needs_asic | Any -> Costmodel.Cost.Asic

let sweep_cap = 8

let optimize target prof prog ~require =
  let ids = P4ir.Program.reachable prog in
  let table = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace table id (naive prog ~require id)) ids;
  let placement id =
    match Hashtbl.find_opt table id with Some c -> c | None -> Costmodel.Cost.Asic
  in
  let latency () = Costmodel.Cost.expected_latency ~placement target prof prog in
  let flip id =
    let current = placement id in
    let other =
      match current with Costmodel.Cost.Asic -> Costmodel.Cost.Cpu | Costmodel.Cost.Cpu -> Costmodel.Cost.Asic
    in
    Hashtbl.replace table id other
  in
  let improved = ref true in
  let sweeps = ref 0 in
  while !improved && !sweeps < sweep_cap do
    improved := false;
    incr sweeps;
    List.iter
      (fun id ->
        if require id = Any then begin
          let before = latency () in
          flip id;
          let after = latency () in
          if after < before -. 1e-9 then improved := true else flip id
        end)
      ids
  done;
  placement

let migrations_expected prof prog ~placement =
  let edges = Costmodel.Cost.edge_probs prof prog in
  let crossing =
    List.fold_left
      (fun acc ((src, next), p) ->
        let src_core = placement src in
        let crosses =
          match next with
          | Some dst -> placement dst <> src_core
          | None -> src_core = Costmodel.Cost.Cpu
        in
        if crosses then acc +. p else acc)
      0. edges
  in
  let entry =
    match P4ir.Program.root prog with
    | Some r when placement r = Costmodel.Cost.Cpu -> 1.0
    | _ -> 0.
  in
  crossing +. entry
