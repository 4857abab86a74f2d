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
   packet outcomes, engine state, or latencies diverges from Refsim. *)
let mk_exec ~telemetry target prog =
  let ex = Nicsim.Exec.create (exec_config target) prog in
  if telemetry then
    Nicsim.Exec.set_telemetry ex
      (Telemetry.create ~trace_capacity:1024 ~trace_sample_every:7 ());
  ex

(* One packet through a live executor as a one-lane burst through the
   data path, observed the same way Refsim reports (final field values,
   drop flag, egress, action trace), with its latency. *)
let exec_lane ex flow =
  let pkt = Nicsim.Packet.of_fields flow in
  let trace = ref [] in
  Nicsim.Exec.set_tracer ex
    (Some (fun (e : Nicsim.Exec.trace_event) -> trace := (e.name, e.outcome) :: !trace));
  let latency = Nicsim.Exec.run_packet ex ~now:0. pkt in
  Nicsim.Exec.set_tracer ex None;
  ( { Refsim.fields = List.map (fun f -> (f, Nicsim.Packet.get pkt f)) Refsim.observed_fields;
      dropped = Nicsim.Packet.is_dropped pkt;
      egress = Nicsim.Packet.egress_port pkt;
      trace = List.rev !trace },
    latency )

let exec_obs ex flow = fst (exec_lane ex flow)

let guard f =
  try f () with e -> Some { packet_index = -1; reason = "exception: " ^ Printexc.to_string e }

let find_diff pairs =
  let rec go i = function
    | [] -> None
    | (a, b) :: rest -> (
      match Refsim.diff_obs a b with
      | Some reason -> Some { packet_index = i; reason }
      | None -> go (i + 1) rest)
  in
  go 0 pairs

(* Each packet against a Refsim session under the executor's own cost
   parameters: observable state and action trace first, then the
   latency bits of the section 3.1 model. *)
let sim_diff ?(telemetry = false) target prog packets =
  if not (supported prog) then
    invalid_arg "Oracle.sim_diff: program carries optimizer-generated tables";
  guard (fun () ->
      let ex = mk_exec ~telemetry target prog in
      let { Nicsim.Exec.instrumented; sample_rate; placement; _ } = Nicsim.Exec.config ex in
      let s =
        Refsim.session { target; instrumented; sample_rate; placement } prog
      in
      let rec go i = function
        | [] -> None
        | flow :: rest -> (
          let want = Refsim.send s ~seq:(Nicsim.Exec.packets_seen ex + 1) ~now:0. flow in
          let got, latency = exec_lane ex flow in
          match Refsim.diff_obs ~compare_trace:true want.obs got with
          | Some reason -> Some { packet_index = i; reason }
          | None ->
            if Int64.equal (Int64.bits_of_float want.latency) (Int64.bits_of_float latency)
            then go (i + 1) rest
            else
              Some
                { packet_index = i;
                  reason = Printf.sprintf "latency: %h vs %h" want.latency latency })
      in
      go 0 packets)

let replay_diff ?(telemetry = false) target prog_a prog_b packets =
  guard (fun () ->
      let ex_a = mk_exec ~telemetry target prog_a in
      let ex_b = mk_exec ~telemetry target prog_b in
      find_diff
        (List.map (fun flow -> (exec_obs ex_a flow, exec_obs ex_b flow))
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

let optim_equiv ?config ?mutate ?telemetry target profile prog packets =
  guard (fun () ->
      let result = Pipeleon.Optimizer.optimize ?config target profile prog in
      let optimized = force_ternary_merges result.Pipeleon.Optimizer.program in
      match mutate with
      | None -> replay_diff ?telemetry target prog optimized packets
      | Some m -> (
        match m optimized with
        | None -> None (* nothing for this mutation to corrupt *)
        | Some corrupted -> replay_diff ?telemetry target prog corrupted packets))

let roundtrip ?(telemetry = false) target prog packets =
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
          (* Behaviour must survive both round trips. Refsim arbitrates
             so a bug symmetric in Exec cannot cancel out. P4-lite has no syntax for conditional names
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
                Refsim.diff_obs ~compare_trace:true want (exec_obs ex_json flow)
              with
              | Some reason ->
                Some { packet_index = i; reason = "json round-trip: " ^ reason }
              | None -> (
                match
                  Refsim.diff_obs ~compare_trace:true
                    (erase_cond_names prog want)
                    (erase_cond_names reparsed (exec_obs ex_p4l flow))
                with
                | Some reason ->
                  Some { packet_index = i; reason = "p4l round-trip: " ^ reason }
                | None -> go (i + 1) rest))
          in
          go 0 packets
        end
      end)
