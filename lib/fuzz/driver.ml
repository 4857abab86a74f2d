module Program = P4ir.Program

type mode = Sim_diff | Optim_equiv | Roundtrip | Chaos

let mode_to_string = function
  | Sim_diff -> "sim-diff"
  | Optim_equiv -> "optim-equiv"
  | Roundtrip -> "serialize-roundtrip"
  | Chaos -> "chaos"

let mode_of_string = function
  | "sim-diff" -> Some Sim_diff
  | "optim-equiv" -> Some Optim_equiv
  | "serialize-roundtrip" | "roundtrip" -> Some Roundtrip
  | "chaos" -> Some Chaos
  | _ -> None

(* Fuzzing wants every pipelet rewritten, not just the profitable fifth. *)
let optimizer_config = { Pipeleon.Optimizer.default_config with top_k = 1.0 }

let check ?(autotune = false) ?mutate ?telemetry ?driver target mode (case : Shrink.case) =
  match mode with
  | Sim_diff -> Oracle.sim_diff ?telemetry ?driver target case.program case.packets
  | Roundtrip -> Oracle.roundtrip ?telemetry ?driver target case.program case.packets
  | Chaos -> Chaos.check ?telemetry ~autotune ?driver target case
  | Optim_equiv ->
    (* With [autotune], each case first picks its own optimizer settings
       by a small design-space exploration over the case profile — the
       equivalence oracle then proves the rewrite under the tuned config,
       not just the frozen default. Deterministic in the case. *)
    let config =
      if not autotune then optimizer_config
      else
        let ex =
          Pipeleon.Tune.explore ~budget:6 ~radius:1 ~config:optimizer_config target
            case.profile case.program
        in
        Pipeleon.Tune.apply_optimizer ex.Pipeleon.Tune.chosen.Pipeleon.Tune.assignment
          optimizer_config
    in
    Oracle.optim_equiv ~config
      ?mutate:(Option.map (fun (m : Mutate.t) -> m.apply) mutate)
      ?telemetry ?driver target case.profile case.program case.packets

type finding = {
  case_index : int;
  divergence : Oracle.divergence;
  tables : int;
  nodes : int;
  packets : int;
  dir : string option;
}

type report = {
  mode : mode;
  seed : int;
  budget : int;
  packets_per_case : int;
  findings : finding list;
}

(* Each case owns a generator derived from (seed, index) by splitmix's
   golden-gamma mixing, so case [i] replays identically whatever the
   budget. *)
let case_rng ~seed i =
  Stdx.Prng.create
    Int64.(add (mul (of_int (seed + 1)) 0x9E3779B97F4A7C15L) (of_int i))

let run ?(params = Gen.default_params) ?(n_packets = 64) ?out_dir ?autotune ?mutate ?max_shrink_steps ?telemetry ?driver
    ?(target = Costmodel.Target.bluefield2) mode ~seed ~budget =
  let findings = ref [] in
  for i = 0 to budget - 1 do
    let case = Gen.case ~params ~n_packets (case_rng ~seed i) in
    let checker = check ?autotune ?mutate ?telemetry ?driver target mode in
    match checker case with
    | None -> ()
    | Some first ->
      let shrunk = Shrink.shrink ?max_steps:max_shrink_steps checker case in
      let divergence = match checker shrunk with Some d -> d | None -> first in
      let dir =
        Option.map
          (fun base -> Filename.concat base (Printf.sprintf "case_%d" i))
          out_dir
      in
      Option.iter (fun d -> Repro.write_case ~dir:d shrunk) dir;
      findings :=
        { case_index = i;
          divergence;
          tables = List.length (Program.tables shrunk.program);
          nodes = Program.num_nodes shrunk.program;
          packets = List.length shrunk.packets;
          dir }
        :: !findings
  done;
  { mode; seed; budget; packets_per_case = n_packets; findings = List.rev !findings }

let summary report =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "fuzz mode=%s seed=%d budget=%d packets/case=%d\n"
       (mode_to_string report.mode) report.seed report.budget report.packets_per_case);
  List.iter
    (fun f ->
      let where =
        if f.divergence.Oracle.packet_index >= 0 then
          Printf.sprintf "packet %d: " f.divergence.Oracle.packet_index
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "case %d: %s%s\n  shrunk to %d tables / %d nodes / %d packets%s\n"
           f.case_index where f.divergence.Oracle.reason f.tables f.nodes f.packets
           (match f.dir with Some d -> " -> " ^ d | None -> "")))
    report.findings;
  Buffer.add_string buf
    (Printf.sprintf "divergences=%d cases=%d\n" (List.length report.findings) report.budget);
  Buffer.contents buf

let replay ?autotune ?mutate ?telemetry ?driver
    ?(target = Costmodel.Target.bluefield2) mode ~dir =
  check ?autotune ?mutate ?telemetry ?driver target mode
    (Repro.load_case ~dir)
