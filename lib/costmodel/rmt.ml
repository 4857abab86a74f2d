(* A Tofino-like pipeline: 12 stages of at most 16 tables and 1.5 MiB. *)
let num_stages = 12
let tables_per_stage = 16
let memory_per_stage = 3 * 512 * 1024

type placement = { stage_of : (string * int) list; stages_used : int }

type result = Fits of placement | Does_not_fit of string

(* A table depends on an earlier table when they are not reorderable;
   control-flow order also pins conditional-guarded tables: we use the
   program's topological order as "earlier". *)
let pack target prog =
  let tables = P4ir.Program.tables prog in
  let stage_mem = Array.make num_stages 0 in
  let stage_count = Array.make num_stages 0 in
  let placed : (string * int) list ref = ref [] in
  let rec place acc = function
    | [] -> Fits { stage_of = List.rev acc; stages_used = 1 + List.fold_left (fun m (_, s) -> max m s) 0 acc }
    | (_, (tab : P4ir.Table.t)) :: rest ->
      (* Earliest stage strictly after every placed table this one
         depends on. *)
      let min_stage =
        List.fold_left
          (fun acc (name, stage) ->
            let earlier =
              List.find_opt
                (fun (_, (t : P4ir.Table.t)) -> String.equal t.name name)
                tables
            in
            match earlier with
            | Some (_, earlier_tab) when not (P4ir.Deps.independent earlier_tab tab) ->
              max acc (stage + 1)
            | _ -> acc)
          0 !placed
      in
      let mem = Resource.table_memory target tab in
      let rec try_stage s =
        if s >= num_stages then
          Does_not_fit
            (Printf.sprintf "table %s does not fit (needs stage >= %d)" tab.name min_stage)
        else if
          stage_count.(s) < tables_per_stage
          && stage_mem.(s) + mem <= memory_per_stage
        then begin
          stage_mem.(s) <- stage_mem.(s) + mem;
          stage_count.(s) <- stage_count.(s) + 1;
          placed := (tab.name, s) :: !placed;
          place ((tab.name, s) :: acc) rest
        end
        else try_stage (s + 1)
      in
      try_stage min_stage
  in
  place [] tables

let throughput_gbps target prog =
  match pack target prog with
  | Fits _ -> Some target.Target.line_rate_gbps
  | Does_not_fit _ -> None

let dependency_diameter prog =
  let tables = P4ir.Program.tables prog in
  (* Longest dependent chain over the topological table order. *)
  let arr = Array.of_list (List.map snd tables) in
  let n = Array.length arr in
  let depth = Array.make n 1 in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      if not (P4ir.Deps.independent arr.(j) arr.(i)) then
        depth.(i) <- max depth.(i) (depth.(j) + 1)
    done
  done;
  Array.fold_left max 0 depth
