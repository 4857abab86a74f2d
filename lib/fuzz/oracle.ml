module Program = P4ir.Program
module Table = P4ir.Table

type divergence = {
  packet_index : int;
  reason : string;
}

let supported prog =
  List.for_all (fun (_, (t : Table.t)) -> t.role = Table.Regular) (Program.tables prog)

let exec_config target =
  { Nicsim.Exec.target;
    instrumented = false;
    sample_rate = 1;
    placement = Costmodel.Cost.all_asic }

(* With [telemetry], the executor under test carries an enabled sink
   (metrics plus a sampled trace ring). The differential comparison then
   doubles as an observe-only proof: any instrumentation that leaks into
   packet outcomes, engine state, or latencies diverges from the
   uninstrumented reference interpreter. *)
let mk_exec ~telemetry target prog =
  let ex = Nicsim.Exec.create (exec_config target) prog in
  if telemetry then
    Nicsim.Exec.set_telemetry ex
      (Telemetry.create ~trace_capacity:1024 ~trace_sample_every:7 ());
  ex

type exec_driver = Interp | Compiled

let driver_to_string = function
  | Interp -> "interp"
  | Compiled -> "compiled"

let driver_of_string = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | _ -> None

(* One lane through the burst entry at an explicit sequence number. *)
let run_lane ex ~seq pkt =
  ignore
    (Nicsim.Exec.run_batch ex ~seqs:[| seq |] ~nows:[| 0. |] ~pos:0 ~n:1 ~out:[| 0. |]
       [| pkt |])

(* One packet through a live executor, observed the same way Refsim
   reports: final field values, drop flag, egress, action trace. The
   driver picks which execution path carries the packet — both claim
   bit-identity with [run_packet], and this observation is where the
   fuzzer holds them to it. *)
let exec_obs ?(driver = Interp) ex flow : Refsim.obs =
  let pkt = Nicsim.Packet.of_fields flow in
  let trace = ref [] in
  let hook =
    Some (fun (e : Nicsim.Exec.trace_event) -> trace := (e.name, e.outcome) :: !trace)
  in
  let seq = Nicsim.Exec.packets_seen ex + 1 in
  (match driver with
  | Interp ->
    Nicsim.Exec.set_tracer ex hook;
    ignore (Nicsim.Exec.run_packet ex ~now:0. pkt);
    Nicsim.Exec.set_tracer ex None
  | Compiled ->
    (* A burst of one through the data path's compiled walk. *)
    Nicsim.Exec.set_tracer ex hook;
    run_lane ex ~seq pkt;
    Nicsim.Exec.set_tracer ex None);
  { Refsim.fields = List.map (fun f -> (f, Nicsim.Packet.get pkt f)) Refsim.observed_fields;
    dropped = Nicsim.Packet.is_dropped pkt;
    egress = Nicsim.Packet.egress_port pkt;
    trace = List.rev !trace }

let guard f =
  try f () with e -> Some { packet_index = -1; reason = "exception: " ^ Printexc.to_string e }

let find_diff ?compare_trace pairs =
  let rec go i = function
    | [] -> None
    | (a, b) :: rest -> (
      match Refsim.diff_obs ?compare_trace a b with
      | Some reason -> Some { packet_index = i; reason }
      | None -> go (i + 1) rest)
  in
  go 0 pairs

let sim_diff ?(telemetry = false) ?driver target prog packets =
  if not (supported prog) then
    invalid_arg "Oracle.sim_diff: program carries optimizer-generated tables";
  guard (fun () ->
      let ex = mk_exec ~telemetry target prog in
      find_diff ~compare_trace:true
        (List.map (fun flow -> (Refsim.run prog flow, exec_obs ?driver ex flow)) packets))

let replay_diff ?(telemetry = false) ?driver target prog_a prog_b packets =
  guard (fun () ->
      let ex_a = mk_exec ~telemetry target prog_a in
      let ex_b = mk_exec ~telemetry target prog_b in
      find_diff ~compare_trace:false
        (List.map (fun flow -> (exec_obs ?driver ex_a flow, exec_obs ?driver ex_b flow))
           packets))

(* The cost model never picks a ternary merge on current targets — the
   m·l_mat estimate always exceeds separate lookups — so left to the
   optimizer alone, [Merge.build_ternary] would be fuzzed by nobody.
   Force-merge the first legal adjacent pair of each pipelet after the
   optimizer pass: unprofitable, but it must still preserve semantics.
   Only [Regular] tables qualify; a cache's auto-insert behaviour has no
   static-table equivalent. *)
let force_ternary_merges prog =
  let pipelets = Pipeleon.Pipelet.form ~max_len:8 prog in
  let order = Program.topological_order prog in
  let idx id =
    match List.find_index (Int.equal id) order with Some i -> i | None -> max_int
  in
  let pipelets =
    List.stable_sort
      (fun (a : Pipeleon.Pipelet.t) (b : Pipeleon.Pipelet.t) ->
        compare (idx a.entry) (idx b.entry))
      pipelets
  in
  let merge_pair prog (p : Pipeleon.Pipelet.t) =
    let tabs = Pipeleon.Pipelet.tables prog p in
    let ok (t : Table.t) = t.role = Table.Regular in
    let rec find i = function
      | a :: b :: _ when ok a && ok b && Pipeleon.Merge.mergeable [ a; b ] -> Some i
      | _ :: rest -> find (i + 1) rest
      | [] -> None
    in
    match find 0 tabs with
    | None -> None
    | Some pos -> (
      let originals = [ List.nth tabs pos; List.nth tabs (pos + 1) ] in
      let name = Printf.sprintf "__fuzz_m%d" p.entry in
      match Pipeleon.Merge.build_ternary ~name originals with
      | merged -> (
        let elements =
          List.concat
            (List.mapi
               (fun i t ->
                 if i = pos then [ Pipeleon.Transform.Merged_plain { merged; originals } ]
                 else if i = pos + 1 then []
                 else [ Pipeleon.Transform.Plain t ])
               tabs)
        in
        match Pipeleon.Transform.apply prog p elements with
        | prog -> Some prog
        | exception Invalid_argument _ -> None)
      | exception Invalid_argument _ -> None)
  in
  List.fold_left
    (fun prog p -> match merge_pair prog p with Some prog' -> prog' | None -> prog)
    prog pipelets

let optim_equiv ?config ?mutate ?telemetry ?driver target profile prog packets =
  guard (fun () ->
      let result = Pipeleon.Optimizer.optimize ?config target profile prog in
      let optimized = force_ternary_merges result.Pipeleon.Optimizer.program in
      match mutate with
      | None -> replay_diff ?telemetry ?driver target prog optimized packets
      | Some m -> (
        match m optimized with
        | None -> None (* nothing for this mutation to corrupt *)
        | Some corrupted -> replay_diff ?telemetry ?driver target prog corrupted packets))

let roundtrip ?(telemetry = false) ?driver target prog packets =
  if not (supported prog) then
    invalid_arg "Oracle.roundtrip: program carries optimizer-generated tables";
  guard (fun () ->
      let json1 = P4ir.Json.to_string (P4ir.Serialize.program_to_json prog) in
      let reloaded = P4ir.Serialize.program_of_json (P4ir.Json.of_string_exn json1) in
      let json2 = P4ir.Json.to_string (P4ir.Serialize.program_to_json reloaded) in
      if json1 <> json2 then Some { packet_index = -1; reason = "JSON print/parse/print unstable" }
      else begin
        let src1 = P4lite.Emit.emit prog in
        let reparsed = P4lite.Lower.parse_program src1 in
        let src2 = P4lite.Emit.emit reparsed in
        if src1 <> src2 then
          Some { packet_index = -1; reason = "p4l emit/parse/emit not a fixpoint" }
        else begin
          (* Behaviour must survive both round trips. The reference
             interpreter arbitrates so a bug symmetric in Exec cannot
             cancel out. P4-lite has no syntax for conditional names
             (the frontend invents them), so for the p4l leg branch
             trace entries are compared by position and outcome only. *)
          let erase_cond_names p (obs : Refsim.obs) =
            let conds = List.map (fun (_, (c : Program.cond)) -> c.cond_name) (Program.conds p) in
            { obs with
              Refsim.trace =
                List.map
                  (fun (n, o) -> if List.mem n conds then ("<branch>", o) else (n, o))
                  obs.Refsim.trace }
          in
          let ex_json = mk_exec ~telemetry target reloaded in
          let ex_p4l = mk_exec ~telemetry target reparsed in
          let rec go i = function
            | [] -> None
            | flow :: rest -> (
              let want = Refsim.run prog flow in
              match
                Refsim.diff_obs ~compare_trace:true want (exec_obs ?driver ex_json flow)
              with
              | Some reason ->
                Some { packet_index = i; reason = "json round-trip: " ^ reason }
              | None -> (
                match
                  Refsim.diff_obs ~compare_trace:true
                    (erase_cond_names prog want)
                    (erase_cond_names reparsed (exec_obs ?driver ex_p4l flow))
                with
                | Some reason ->
                  Some { packet_index = i; reason = "p4l round-trip: " ^ reason }
                | None -> go (i + 1) rest))
          in
          go 0 packets
        end
      end)
