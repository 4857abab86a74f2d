(* `main.exe perf`: the nicsim + optimizer fast-path micro-suite.

   Times the table-engine lookup path by match kind (the ternary skip
   probe against the same engine's unskipped reference probe, the other
   kinds and the rule-scale tables after-only), engine construction,
   and the window driver; then
   the optimizer fast path (candidate enumeration, analytic evaluation,
   knapsack, end-to-end optimize, and warm-start against the cold
   optimizer). Writes the numbers to a JSON artifact (default
   BENCH_nicsim.json) so CI can track them. *)

(* --- timing --- *)

let now () = Unix.gettimeofday ()

(* Best-of-[reps] mean ns/op, with one untimed warmup pass. *)
let time_ns ?(reps = 3) ~iters f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = (now () -. t0) *. 1e9 /. float_of_int iters in
    if dt < !best then best := dt
  done;
  !best

type bench = {
  name : string;
  unit_ : string;  (* what one "op" is *)
  before_ns : float option;  (* pre-fast-path implementation, if comparable *)
  after_ns : float;
  iters : int;
  note : string option;  (* context for the row (plan kinds, skip reason) *)
}

let speedup b = Option.map (fun before -> before /. b.after_ns) b.before_ns

let ops_per_sec ns = 1e9 /. ns

(* --- fixtures --- *)

let nop_actions = [ P4ir.Action.nop "a" ]

let mk_table name keys entries =
  P4ir.Table.make ~name ~keys ~actions:nop_actions ~default_action:"a" ~entries ()

let exact_table n =
  mk_table "bx"
    [ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
    (List.init n (fun i -> P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int i) ] "a"))

(* [nlens] prefix lengths (8, 9, ...) on Ipv4_dst, [per_len] prefixes
   each — the shaped-LPM worst case the paper's cost model charges one
   hash probe per length for. *)
let lpm_entries ~nlens ~per_len =
  List.concat
    (List.init nlens (fun l ->
         let len = 8 + l in
         List.init per_len (fun i ->
             let base =
               Int64.shift_left (Int64.of_int ((l * per_len) + i + 1)) (32 - len)
             in
             let v = P4ir.Value.truncate ~width:32 base in
             P4ir.Table.entry [ P4ir.Pattern.Lpm (v, len) ] "a")))

let lpm_table ~nlens ~per_len =
  mk_table "bl"
    [ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Lpm ]
    (lpm_entries ~nlens ~per_len)

let ternary_masks =
  [| 0xFFL; 0xFF00L; 0xFFFFL; 0xFF0000L; 0xFFFF00L; 0xFFFFFFL; 0xF0F0F0L; 0x0F0F0FL |]

let ternary_table ~per_mask =
  let entries =
    List.concat
      (List.init (Array.length ternary_masks) (fun m ->
           let mask = ternary_masks.(m) in
           List.init per_mask (fun i ->
               let v = Int64.logand (Int64.of_int (((m * per_mask) + i) * 2654435761)) mask in
               P4ir.Table.entry ~priority:((m * per_mask) + i)
                 [ P4ir.Pattern.Ternary (v, mask) ]
                 "a")))
  in
  mk_table "bt" [ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Ternary ] entries

(* A cycling pool of probe packets: deterministic, mixes hits at several
   depths with misses. *)
let probe_pool ~seed ~size ~of_rng =
  let rng = Stdx.Prng.create seed in
  let pool = Array.init size (fun _ -> of_rng rng) in
  let i = ref 0 in
  fun () ->
    let p = pool.(!i) in
    i := (!i + 1) mod size;
    p

(* Lookups through one engine. With [~vs_linear] the before column is
   the same engine's reference probe ([Engine.lookup_linear]), so the
   row answers whether [Engine.probe]'s shortcuts pay for themselves;
   otherwise the row is after-only. *)
let lookup_bench ~name ~iters ~vs_linear tab probe_of_rng =
  let eng = Nicsim.Engine.create tab in
  let time lookup =
    let probes = probe_pool ~seed:7L ~size:1024 ~of_rng:probe_of_rng in
    time_ns ~iters (fun () -> lookup eng (probes ()))
  in
  let before_ns = if vs_linear then Some (time Nicsim.Engine.lookup_linear) else None in
  let after_ns = time Nicsim.Engine.probe in
  { name;
    unit_ = "lookup";
    before_ns;
    after_ns;
    iters;
    note = (if vs_linear then Some "lookup_linear -> probe" else None) }

let dst_packet rng =
  Nicsim.Packet.of_fields
    [ (P4ir.Field.Ipv4_dst, Int64.logand (Stdx.Prng.next64 rng) 0xFFFFFFFFL) ]

(* --- flow-cache and range fixtures --- *)

(* A two-key flow cache ([Ipv4_src], [Tcp_dport]) of [capacity] entries,
   no fill rate limit; [key i] is the i-th distinct key. *)
let cache_engine ~capacity =
  let tab =
    P4ir.Table.make ~name:"bc"
      ~keys:
        [ P4ir.Table.key P4ir.Field.Ipv4_src P4ir.Match_kind.Exact;
          P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "t:a"; P4ir.Action.nop "miss" ]
      ~default_action:"miss"
      ~role:
        (P4ir.Table.Cache
           { P4ir.Table.cached_tables = [ "t" ]; capacity; insert_limit = 0.; auto_insert = true })
      ()
  in
  Nicsim.Engine.create tab

let cache_key i = (Int64.of_int (0x0A000000 + (i * 7919)), Int64.of_int (i land 0xFFFF))

let cache_fill_entry i =
  let src, dport = cache_key i in
  P4ir.Table.entry [ P4ir.Pattern.Exact src; P4ir.Pattern.Exact dport ] "t:a"

(* Eight service ranges with overlapping, tied-priority rules — the
   firewall's [service_acl] shape, which every untrusted packet crosses. *)
let range_table () =
  mk_table "br"
    [ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Range ]
    (List.map
       (fun (lo, hi, priority) -> P4ir.Table.entry ~priority [ P4ir.Pattern.Range (lo, hi) ] "a")
       [ (22L, 22L, 3); (80L, 80L, 2); (443L, 443L, 2); (8080L, 8090L, 2); (53L, 53L, 2);
         (1024L, 49151L, 1); (49152L, 65535L, 1); (0L, 1023L, 0) ])

(* --- rule-scale fixtures --- *)

(* 16 prefix lengths (17..32) x n/16 prefixes each. The odd-multiplier
   bijection keeps prefixes distinct per length at million-rule scale
   (the i+1 indices stay below 2^17 <= 2^len). Returns the table and a
   probe-value generator mixing ~50% guaranteed hits at random depths
   with random 32-bit misses. *)
let scale_lpm_fixture n =
  let nlens = 16 in
  let per = max 1 (n / nlens) in
  let prefix_of l i =
    let len = 17 + l in
    let v = ((l * per) + i + 1) * 2654435761 land ((1 lsl len) - 1) in
    (Int64.shift_left (Int64.of_int v) (32 - len), len)
  in
  let entries =
    List.concat
      (List.init nlens (fun l ->
           List.init per (fun i ->
               let v, len = prefix_of l i in
               P4ir.Table.entry [ P4ir.Pattern.Lpm (v, len) ] "a")))
  in
  let tab =
    mk_table "sl" [ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Lpm ] entries
  in
  let probe rng =
    if Stdx.Prng.int rng 2 = 0 then begin
      let v, len = prefix_of (Stdx.Prng.int rng nlens) (Stdx.Prng.int rng per) in
      let low_mask = Int64.sub (Int64.shift_left 1L (32 - len)) 1L in
      Int64.logor v (Int64.logand (Stdx.Prng.next64 rng) low_mask)
    end
    else Int64.logand (Stdx.Prng.next64 rng) 0xFFFFFFFFL
  in
  (tab, probe)

(* 64 ClassBench-style prefix-pair masks x n/64 entries each with
   unique priorities: the 32-bit key is read as two 16-bit halves
   (src/dst prefixes of a compressed 5-tuple ACL), each mask a prefix
   of length 9..16 over each half — 8 x 8 = 64 masks, popcount >= 18 so
   a million rules stay distinct at ~6% fill. That is the mask
   structure real ACL rule sets have (and what a TCAM expands ranges
   into). Values spread an odd-multiplier bijection of the entry index
   across the mask's set bits, so every entry is distinct. *)
let scale_ternary_fixture n =
  let pairs = ref [] in
  for a = 16 downto 9 do
    for b = 16 downto 9 do
      pairs := (a, b) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  let nmasks = 64 in
  let per = max 1 (n / nmasks) in
  let half_mask len = Int64.of_int (0xFFFF land (0xFFFF lsl (16 - len))) in
  let masks =
    Array.init nmasks (fun m ->
        let a, b = pairs.(m) in
        Int64.logor (Int64.shift_left (half_mask a) 16) (half_mask b))
  in
  (* Deposit the low bits of [x] into [mask]'s set bit positions. *)
  let deposit mask x =
    let v = ref 0L and bit = ref 0 in
    for b = 0 to 31 do
      if Int64.equal (Int64.logand (Int64.shift_right_logical mask b) 1L) 1L then begin
        if (x lsr !bit) land 1 = 1 then v := Int64.logor !v (Int64.shift_left 1L b);
        incr bit
      end
    done;
    !v
  in
  let value m i =
    let a, b = pairs.(m) in
    deposit masks.(m) (i * 2654435761 land ((1 lsl (a + b)) - 1))
  in
  let entries =
    List.concat
      (List.init nmasks (fun m ->
           List.init per (fun i ->
               P4ir.Table.entry ~priority:((m * per) + i)
                 [ P4ir.Pattern.Ternary (value m i, masks.(m)) ]
                 "a")))
  in
  let tab =
    mk_table "st" [ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Ternary ] entries
  in
  let probe rng =
    if Stdx.Prng.int rng 2 = 0 then begin
      let m = Stdx.Prng.int rng nmasks in
      let outside = Int64.logand (Int64.lognot masks.(m)) 0xFFFFFFFFL in
      Int64.logor (value m (Stdx.Prng.int rng per)) (Int64.logand (Stdx.Prng.next64 rng) outside)
    end
    else Int64.logand (Stdx.Prng.next64 rng) 0xFFFFFFFFL
  in
  (tab, probe)

(* --- window fixtures --- *)

(* Exact + LPM + ternary pipeline, no cache tables. *)
let window_program () =
  P4ir.Program.linear "perf"
    [ exact_table 1024; lpm_table ~nlens:12 ~per_len:64; ternary_table ~per_mask:32 ]

let window_source seed =
  let rng = Stdx.Prng.create seed in
  fun () ->
    Nicsim.Packet.of_fields
      [ (P4ir.Field.Ipv4_src, Int64.logand (Stdx.Prng.next64 rng) 0xFFFFFFFFL);
        (P4ir.Field.Ipv4_dst, Int64.logand (Stdx.Prng.next64 rng) 0xFFFFFFFFL);
        (P4ir.Field.Tcp_sport, Int64.logand (Stdx.Prng.next64 rng) 0xFFFFL);
        (P4ir.Field.Tcp_dport, Int64.logand (Stdx.Prng.next64 rng) 0xFFFFL) ]

let target = Costmodel.Target.bluefield2

let window_bench ~name ~packets ~windows run =
  (* One untimed warmup window, then [windows] timed ones; ns/packet. *)
  let t0 = ref 0. in
  let total = ref 0 in
  let first = ref true in
  for _ = 0 to windows do
    if not !first then total := !total + packets;
    if !first then begin
      ignore (Sys.opaque_identity (run ()));
      first := false;
      t0 := now ()
    end
    else ignore (Sys.opaque_identity (run ()))
  done;
  let ns = (now () -. !t0) *. 1e9 /. float_of_int !total in
  { name; unit_ = "packet"; before_ns = None; after_ns = ns; iters = !total; note = None }

(* --- the suite --- *)

let run_suite ~smoke =
  let scale n = if smoke then max 1 (n / 50) else n in
  let lookup_iters = scale 200_000 in
  let benches = ref [] in
  let push b = benches := b :: !benches in

  (* Engine lookups by match kind. *)
  push
    (lookup_bench ~name:"engine-lookup/exact-4k" ~iters:lookup_iters ~vs_linear:false
       (exact_table 4096)
       (fun rng ->
         Nicsim.Packet.of_fields
           [ (P4ir.Field.Ipv4_dst, Int64.of_int (Stdx.Prng.int rng 8192)) ]));
  push
    (lookup_bench ~name:"engine-lookup/lpm-16len" ~iters:lookup_iters ~vs_linear:false
       (lpm_table ~nlens:16 ~per_len:64)
       dst_packet);
  push
    (lookup_bench ~name:"engine-lookup/ternary-8mask" ~iters:lookup_iters ~vs_linear:true
       (ternary_table ~per_mask:64)
       dst_packet);

  (* The compiled walk's flow-cache and range probes ([Engine.probe]),
     after-only. cache-hit-2key: hits on a warm 2-key cache of 1024
     entries. cache-churn: fills of keys not in a full 1024-entry cache,
     each evicting the least recent entry (4096 keys cycle through it;
     entries prebuilt so the row times the store, not entry
     construction). range-8: probes of an 8-rule range table. *)
  let warm = cache_engine ~capacity:1024 in
  for i = 0 to 1023 do
    ignore (Nicsim.Engine.cache_fill warm ~now:0. (cache_fill_entry i))
  done;
  push
    (let probes =
       probe_pool ~seed:7L ~size:1024 ~of_rng:(fun rng ->
           let src, dport = cache_key (Stdx.Prng.int rng 1024) in
           Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_src, src); (P4ir.Field.Tcp_dport, dport) ])
     in
     { name = "engine-lookup/cache-hit-2key";
       unit_ = "lookup";
       before_ns = None;
       after_ns = time_ns ~iters:lookup_iters (fun () -> Nicsim.Engine.probe warm (probes ()));
       iters = lookup_iters;
       note = None });
  push
    (let churn = cache_engine ~capacity:1024 in
     let fills = Array.init 4096 cache_fill_entry in
     Array.iteri (fun i e -> if i < 1024 then ignore (Nicsim.Engine.cache_fill churn ~now:0. e)) fills;
     let k = ref 1024 in
     { name = "engine-lookup/cache-churn";
       unit_ = "fill";
       before_ns = None;
       after_ns =
         time_ns ~iters:lookup_iters (fun () ->
             let e = fills.(!k land 4095) in
             incr k;
             Nicsim.Engine.cache_fill churn ~now:0. e);
       iters = lookup_iters;
       note = Some "every fill evicts" });
  push
    (let eng = Nicsim.Engine.create (range_table ()) in
     let probes =
       probe_pool ~seed:7L ~size:1024 ~of_rng:(fun rng ->
           Nicsim.Packet.of_fields
             [ (P4ir.Field.Tcp_dport, Int64.of_int (Stdx.Prng.int rng 65536)) ])
     in
     { name = "engine-lookup/range-8";
       unit_ = "lookup";
       before_ns = None;
       after_ns = time_ns ~iters:lookup_iters (fun () -> Nicsim.Engine.probe eng (probes ()));
       iters = lookup_iters;
       note = None });

  (* Rule-scale rows, after-only: the longest-first LPM probe over 16
     prefix lengths, the ternary skip probe over 64 masks and the exact
     hash, at 100k and 1M rules (tables shrink with [scale] in smoke
     mode). *)
  let dst_probe probe_value rng =
    Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_dst, probe_value rng) ]
  in
  List.iter
    (fun (n, label) ->
      let sz = scale n in
      let lpm_tab, lpm_probe = scale_lpm_fixture sz in
      push
        (lookup_bench
           ~name:(Printf.sprintf "engine-lookup/lpm-%s" label)
           ~iters:lookup_iters ~vs_linear:false lpm_tab (dst_probe lpm_probe));
      let ter_tab, ter_probe = scale_ternary_fixture sz in
      push
        (lookup_bench
           ~name:(Printf.sprintf "engine-lookup/ternary-%s" label)
           ~iters:lookup_iters ~vs_linear:false ter_tab (dst_probe ter_probe));
      push
        (lookup_bench
           ~name:(Printf.sprintf "engine-lookup/exact-%s" label)
           ~iters:lookup_iters ~vs_linear:false (exact_table sz)
           (fun rng ->
             Nicsim.Packet.of_fields
               [ (P4ir.Field.Ipv4_dst, Int64.of_int (Stdx.Prng.int rng (2 * sz))) ])))
    [ (100_000, "100k"); (1_000_000, "1M") ];

  (* Lookups under a sustained update rate: each op deletes the oldest
     of 4096 live exact keys, inserts a new one (keys cycle through
     8192) and probes 16 live keys. Entries and packets are prebuilt,
     so the row times the index's in-place edits and the probes. *)
  push
    (let live = 4096 and burst = 16 in
     let ents = Array.init (2 * live) (fun i -> P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int i) ] "a") in
     let pkts =
       Array.init (2 * live) (fun i ->
           Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_dst, Int64.of_int i) ])
     in
     let eng = Nicsim.Engine.create (exact_table live) in
     let k = ref 0 in
     let churn_iters = scale 20_000 in
     { name = "engine-churn/exact-4k";
       unit_ = "op";
       before_ns = None;
       after_ns =
         time_ns ~iters:churn_iters (fun () ->
             let oldest = !k land ((2 * live) - 1) in
             ignore (Nicsim.Engine.delete eng ~patterns:ents.(oldest).patterns);
             Nicsim.Engine.insert eng ents.((oldest + live) land ((2 * live) - 1));
             incr k;
             for j = 1 to burst do
               let key = (!k + (j * 257 mod live)) land ((2 * live) - 1) in
               ignore (Sys.opaque_identity (Nicsim.Engine.probe eng pkts.(key)))
             done);
       iters = churn_iters;
       note = Some "1 delete + 1 insert + 16 probes per op" });

  (* Engine build: insert-time behaviour of the shaped backend. *)
  let build_iters = scale 200 in
  let lpm_tab = lpm_table ~nlens:16 ~per_len:32 in
  push
    { name = "engine-build/lpm-16x32";
      unit_ = "build";
      before_ns = None;
      after_ns = time_ns ~iters:build_iters (fun () -> Nicsim.Engine.create lpm_tab);
      iters = build_iters;
      note = None };

  (* The window driver on a fresh sim. *)
  let packets = scale 100_000 in
  let windows = if smoke then 1 else 3 in
  let fresh_window_bench name run_of_sim =
    let sim = Nicsim.Sim.create target (window_program ()) in
    let src = window_source 23L in
    window_bench ~name ~packets ~windows (fun () -> run_of_sim sim src)
  in
  push
    (fresh_window_bench "run_window/seq" (fun sim src ->
         Nicsim.Sim.run_window sim ~duration:1.0 ~packets ~source:src));

  (* --- compiled data path --- *)

  (* A many-node pipeline: 20 small exact tables over four header
     fields, the shape of real P4 programs — switch.p4-class pipelines
     run dozens of match-action tables — where per-node dispatch (name
     lookups, counter hash probes, per-step allocation), not match
     width, dominates a straightforward walk's cost. Packets come from
     a pre-generated cycling pool so both sides time execution, not
     traffic generation (all actions are nops, so pooled packets are
     never mutated and can recirculate). The compiled row's before
     column is the Fuzz.Refsim session — the independent reference the
     tests hold the data path to — running the same window (same
     packets, sequence numbers and timestamps) on the same fixture. *)
  let pipe_fields =
    [| P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport; P4ir.Field.Tcp_dport |]
  in
  let pipeline_program () =
    P4ir.Program.linear "pipe"
      (List.init 20 (fun i ->
           mk_table
             (Printf.sprintf "p%d" i)
             [ P4ir.Table.key pipe_fields.(i mod 4) P4ir.Match_kind.Exact ]
             (List.init 64 (fun j -> P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int j) ] "a"))))
  in
  let pooled_source () =
    (* ~50% hit rate per table: values in [0,128) against 64 entries. *)
    probe_pool ~seed:31L ~size:1024 ~of_rng:(fun rng ->
        Nicsim.Packet.of_fields
          (List.map
             (fun f -> (f, Int64.of_int (Stdx.Prng.int rng 128)))
             (Array.to_list pipe_fields)))
  in
  let reference_ns =
    let s =
      Fuzz.Refsim.session
        { Fuzz.Refsim.target; instrumented = true; sample_rate = 1;
          placement = Costmodel.Cost.all_asic }
        (pipeline_program ())
    in
    let src = pooled_source () in
    let flows =
      Array.init 1024 (fun _ ->
          let pkt = src () in
          List.map (fun f -> (f, Nicsim.Packet.get pkt f)) Fuzz.Refsim.observed_fields)
    in
    let seen = ref 0 and start = ref 0. in
    (window_bench ~name:"pipe/refsim" ~packets ~windows (fun () ->
         for i = 0 to packets - 1 do
           incr seen;
           let now = !start +. (1.0 *. float_of_int i /. float_of_int packets) in
           ignore (Fuzz.Refsim.send s ~seq:!seen ~now flows.((!seen - 1) land 1023))
         done;
         start := !start +. 1.0))
      .after_ns
  in
  push
    (let sim = Nicsim.Sim.create target (pipeline_program ()) in
     let src = pooled_source () in
     let b =
       window_bench ~name:"run_window/compiled" ~packets ~windows (fun () ->
           Nicsim.Sim.run_window sim ~duration:1.0 ~packets ~source:src)
     in
     { b with before_ns = Some reference_ns });

  (* --- telemetry overhead --- *)

  (* The disabled sink's whole-window cost (guard loads plus the
     always-on histogram fill behind window_stats' p50/p90/p999) against
     a telemetry-free window loop doing exactly the pre-telemetry work:
     the same 64-packet bursts through the same entry ([Exec.run_batch]),
     index-order sum, float sort. Must stay within 2% (checked in
     [run]). *)
  let telemetry_free_window ex latencies ~start ~packets ~source =
    let burst = Array.make 64 (Nicsim.Packet.create ()) in
    let seqs = Array.make 64 0 and nows = Array.make 64 0. in
    let drops = ref 0 in
    let pos = ref 0 in
    while !pos < packets do
      let n = min 64 (packets - !pos) in
      let seen = Nicsim.Exec.packets_seen ex in
      for i = 0 to n - 1 do
        burst.(i) <- source ();
        seqs.(i) <- seen + i + 1;
        nows.(i) <- start +. (1.0 *. float_of_int (!pos + i) /. float_of_int packets)
      done;
      drops := !drops + Nicsim.Exec.run_batch ex ~seqs ~nows ~pos:!pos ~n ~out:latencies burst;
      pos := !pos + n
    done;
    let sum = ref 0. in
    for i = 0 to packets - 1 do
      sum := !sum +. Array.unsafe_get latencies i
    done;
    let avg = !sum /. float_of_int packets in
    Stdx.Fsort.sort latencies;
    (avg, latencies.(min (packets - 1) (packets * 99 / 100)), !drops)
  in
  (* A 2% claim is below this suite's row-to-row drift (turbo, GC state),
     so the two sides alternate rep by rep and each takes its best — the
     same treatment [time_ns] gives its reps. *)
  push
    (let ex = Nicsim.Exec.create (Nicsim.Exec.default_config target) (window_program ()) in
     let src_b = window_source 23L in
     let latencies = Array.make packets 0. in
     let start = ref 0. in
     let before () =
       let r = telemetry_free_window ex latencies ~start:!start ~packets ~source:src_b in
       start := !start +. 1.0;
       r
     in
     let sim = Nicsim.Sim.create target (window_program ()) in
     let src_a = window_source 23L in
     let after () = Nicsim.Sim.run_window sim ~duration:1.0 ~packets ~source:src_a in
     ignore (Sys.opaque_identity (before ()));
     ignore (Sys.opaque_identity (after ()));
     let reps = if smoke then 3 else 7 in
     let best_b = ref infinity and best_a = ref infinity in
     for _ = 1 to reps do
       let t0 = now () in
       for _ = 1 to windows do
         ignore (Sys.opaque_identity (before ()))
       done;
       let b = (now () -. t0) *. 1e9 /. float_of_int (windows * packets) in
       if b < !best_b then best_b := b;
       let t0 = now () in
       for _ = 1 to windows do
         ignore (Sys.opaque_identity (after ()))
       done;
       let a = (now () -. t0) *. 1e9 /. float_of_int (windows * packets) in
       if a < !best_a then best_a := a
     done;
     { name = "telemetry/disabled-overhead";
       unit_ = "packet";
       before_ns = Some !best_b;
       after_ns = !best_a;
       iters = windows * packets * reps;
       note = None });

  (* The enabled sink's cost (metrics only, no trace ring): per-table
     hit/miss counters, packet/drop counters, window histogram merge.
     Informational — no baseline claim. *)
  push
    (let sim =
       Nicsim.Sim.create ~telemetry:(Telemetry.create ()) target (window_program ())
     in
     let src = window_source 23L in
     window_bench ~name:"telemetry/enabled-metrics" ~packets ~windows (fun () ->
         Nicsim.Sim.run_window sim ~duration:1.0 ~packets ~source:src));

  (* --- optimizer fast path --- *)

  (* Candidate enumeration over an 8-table pipelet (segmentations are
     memoized per (n, opts)). *)
  let opt_fields =
    [| P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport;
       P4ir.Field.Tcp_dport |]
  in
  let opt_chain n =
    P4ir.Builder.exact_chain ~prefix:"o" ~n ~key_of:(fun i -> opt_fields.(i mod 4)) ()
  in
  let tabs8 = opt_chain 8 in
  let prof8 = Profile.uniform (P4ir.Program.linear "o8" tabs8) in
  let enum_iters = scale 200 in
  push
    { name = "optim/enumerate-n8";
      unit_ = "enumerate";
      before_ns = None;
      after_ns = time_ns ~iters:enum_iters (fun () -> Pipeleon.Candidate.enumerate prof8 tabs8);
      iters = enum_iters;
      note = None };

  (* Analytic evaluation of one pipelet's full candidate list (fresh
     context per call, as local_optimize does; segment metrics are
     memoized per context). *)
  let tabs6 = opt_chain 6 in
  let prof6 = Profile.uniform (P4ir.Program.linear "o6" tabs6) in
  let combos6 = Pipeleon.Candidate.enumerate prof6 tabs6 in
  let eval_iters = scale 100 in
  push
    { name = "optim/evaluate-analytic";
      unit_ = "pipelet";
      before_ns = None;
      after_ns =
        time_ns ~iters:eval_iters (fun () ->
            let ctx = Pipeleon.Candidate.context target prof6 ~reach_prob:1.0 tabs6 in
            List.iter
              (fun c ->
                ignore (Sys.opaque_identity (Pipeleon.Candidate.evaluate_analytic ctx c)))
              combos6);
      iters = eval_iters;
      note = None };

  (* Group knapsack, 24 groups x 12 options with plenty of dominated
     options (the DP prunes them and clamps to the reachable region). *)
  let knap_groups =
    List.init 24 (fun g ->
        List.init 12 (fun i ->
            { Pipeleon.Knapsack.gain = float_of_int (((g * 7) + i) mod 29);
              mem = 1024 * ((i mod 5) + 1);
              upd = float_of_int ((i mod 4) * 100);
              tag = i }))
  in
  let knap_iters = scale 200 in
  push
    { name = "optim/knapsack-24x12";
      unit_ = "solve";
      before_ns = None;
      after_ns =
        time_ns ~iters:knap_iters (fun () ->
            Pipeleon.Knapsack.solve ~groups:knap_groups ~mem_budget:(256 * 1024)
              ~upd_budget:4000. ());
      iters = knap_iters;
      note = None };

  (* End-to-end Optimizer.optimize on a synthetic program (ESearch
     settings, groups off). *)
  let synth_rng = Stdx.Prng.create 5L in
  let synth_params = { Experiments.Synth.default_params with pipelet_len = 6 } in
  let e2e_prog = Experiments.Synth.program ~params:synth_params synth_rng in
  let e2e_prof = Experiments.Synth.profile synth_rng e2e_prog in
  let e2e_cfg =
    { Pipeleon.Optimizer.default_config with top_k = 1.0; enable_groups = false }
  in
  let e2e_iters = scale 10 in
  push
    { name = "optim/optimize-e2e";
      unit_ = "optimize";
      before_ns = None;
      after_ns =
        time_ns ~iters:e2e_iters (fun () ->
            Pipeleon.Optimizer.optimize ~config:e2e_cfg target e2e_prof e2e_prog);
      iters = e2e_iters;
      note = None };

  (* Warm-start: second and later generations with an unchanged profile
     reuse cached candidate evaluations keyed by pipelet signature. *)
  let warm_cache = Pipeleon.Search.create_cache () in
  let warm =
    { Pipeleon.Optimizer.warm_cache;
      warm_signature = Runtime.Incremental.pipelet_signature }
  in
  ignore (Pipeleon.Optimizer.optimize ~config:e2e_cfg ~warm target e2e_prof e2e_prog);
  push
    { name = "optim/optimize-warm";
      unit_ = "optimize";
      before_ns =
        Some
          (time_ns ~iters:e2e_iters (fun () ->
               Pipeleon.Optimizer.optimize ~config:e2e_cfg target e2e_prof e2e_prog));
      after_ns =
        time_ns ~iters:e2e_iters (fun () ->
            Pipeleon.Optimizer.optimize ~config:e2e_cfg ~warm target e2e_prof e2e_prog);
      iters = e2e_iters;
      note = None };

  (* Design-space exploration (Pipeleon.Tune) on the 20-table pipeline
     fixture the compiled row drives. The after column warm-starts
     every sweep from an already-populated evaluation cache (what a
     repeated offline sweep over one cache pays); the before column pays
     cold candidate enumeration per sweep. The row also guards the
     quality floor: the chosen assignment's modeled latency must
     dominate-or-match the default assignment's — explore can only ever
     return the start point when the whole neighborhood is worse. *)
  let tune_prog = pipeline_program () in
  let tune_prof = Profile.uniform tune_prog in
  let tune_iters = scale 20 in
  let fresh_tune_warm () =
    { Pipeleon.Optimizer.warm_cache = Pipeleon.Search.create_cache ();
      warm_signature = Runtime.Incremental.pipelet_signature }
  in
  let tune_warm = fresh_tune_warm () in
  let tune_ex =
    Pipeleon.Tune.explore ~budget:24 ~radius:1 ~warm:tune_warm target tune_prof tune_prog
  in
  let tuned_lat =
    tune_ex.Pipeleon.Tune.chosen.Pipeleon.Tune.objectives.Pipeleon.Tune.latency
  in
  let default_lat =
    tune_ex.Pipeleon.Tune.start_point.Pipeleon.Tune.objectives.Pipeleon.Tune.latency
  in
  if tuned_lat > default_lat +. 1e-9 then
    Printf.printf
      "WARNING: optim/tune-explore chosen point worse than the default assignment \
       (%.4f > %.4f)\n"
      tuned_lat default_lat;
  push
    { name = "optim/tune-explore";
      unit_ = "explore";
      before_ns =
        Some
          (time_ns ~iters:tune_iters (fun () ->
               Pipeleon.Tune.explore ~budget:24 ~radius:1 ~warm:(fresh_tune_warm ())
                 target tune_prof tune_prog));
      after_ns =
        time_ns ~iters:tune_iters (fun () ->
            Pipeleon.Tune.explore ~budget:24 ~radius:1 ~warm:tune_warm target tune_prof
              tune_prog);
      iters = tune_iters;
      note =
        Some
          (Printf.sprintf "tuned lat %.4f vs default %.4f, %d-point front"
             tuned_lat default_lat
             (List.length tune_ex.Pipeleon.Tune.front)) };

  (* --- fleet tick: shared vs private warm-start caches --- *)

  (* One full fleet cycle — create, one traffic window per member, one
     scheduler tick — under common traffic, so members' pipelet
     signatures coincide and the shared cache turns n first-generation
     searches into one search plus n-1 warm starts. The before column is
     the identical cycle with private caches; fresh fleets per call,
     because the saving is precisely the first-generation search that
     only a fresh fleet pays. Gossip and telemetry are off so the row
     isolates the cache coupling. The note carries the emulated
     search-seconds the shared cache removed from one tick. *)
  let fleet_prog = window_program () in
  let fleet_spec ~nics share_cache =
    { Fleet.default_spec with
      Fleet.nics;
      seed = 5;
      share_cache;
      gossip = false;
      telemetry = false;
      common_traffic = true }
  in
  let fleet_cycle ~nics share_cache =
    let fleet = Fleet.create ~spec:(fleet_spec ~nics share_cache) target fleet_prog in
    ignore (Fleet.run_window_all ~duration:1.0 ~packets:500 fleet);
    Fleet.tick_all ~domains:1 fleet
  in
  let fleet_search_seconds reports =
    Array.fold_left
      (fun acc (r : Runtime.Controller.tick_report) ->
        acc +. r.Runtime.Controller.search_seconds)
      0. reports
  in
  let fleet_row nics =
    let iters = scale (max 5 (80 / nics)) in
    let sec_private = fleet_search_seconds (fleet_cycle ~nics false) in
    let sec_shared = fleet_search_seconds (fleet_cycle ~nics true) in
    let reduction = 100. *. (1. -. (sec_shared /. sec_private)) in
    push
      { name = Printf.sprintf "fleet/tick-%d" nics;
        unit_ = "cycle";
        before_ns = Some (time_ns ~iters (fun () -> fleet_cycle ~nics false));
        after_ns = time_ns ~iters (fun () -> fleet_cycle ~nics true);
        iters;
        note =
          Some
            (Printf.sprintf
               "search %.2fms -> %.2fms per tick (%.0f%% less) with the shared cache"
               (1e3 *. sec_private) (1e3 *. sec_shared) reduction) }
  in
  fleet_row 4;
  fleet_row 16;
  List.rev !benches

(* --- reporting --- *)

let json_of_bench b =
  let base =
    [ ("name", P4ir.Json.String b.name);
      ("unit", P4ir.Json.String b.unit_);
      ("iters", P4ir.Json.Int (Int64.of_int b.iters));
      ("after_ns_per_op", P4ir.Json.Float b.after_ns);
      ("after_ops_per_sec", P4ir.Json.Float (ops_per_sec b.after_ns)) ]
  in
  let before =
    match b.before_ns with
    | None -> []
    | Some ns ->
      [ ("before_ns_per_op", P4ir.Json.Float ns);
        ("before_ops_per_sec", P4ir.Json.Float (ops_per_sec ns));
        ("speedup", P4ir.Json.Float (Option.get (speedup b))) ]
  in
  let note =
    match b.note with None -> [] | Some n -> [ ("note", P4ir.Json.String n) ]
  in
  P4ir.Json.Obj (base @ before @ note)

let report ~smoke ~out benches =
  Printf.printf "%-28s %14s %14s %9s\n" "bench" "before ns/op" "after ns/op" "speedup";
  List.iter
    (fun b ->
      Printf.printf "%-28s %14s %14.1f %9s%s\n" b.name
        (match b.before_ns with Some ns -> Printf.sprintf "%.1f" ns | None -> "-")
        b.after_ns
        (match speedup b with Some s -> Printf.sprintf "%.2fx" s | None -> "-")
        (match b.note with Some n -> "  (" ^ n ^ ")" | None -> ""))
    benches;
  let doc =
    P4ir.Json.Obj
      [ ("schema", P4ir.Json.String "nicsim-perf/1");
        ("generated_by", P4ir.Json.String "bench/main.exe perf");
        ("smoke", P4ir.Json.Bool smoke);
        ("domains_available", P4ir.Json.Int (Int64.of_int (Domain.recommended_domain_count ())));
        ("benches", P4ir.Json.List (List.map json_of_bench benches)) ]
  in
  let oc = open_out out in
  output_string oc (P4ir.Json.to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n%!" out

let run ~smoke ~out =
  let benches = run_suite ~smoke in
  report ~smoke ~out benches;
  (* Guard the headline claims: the fast paths must beat their baselines,
     else the artifact records a regression loudly. The disabled-telemetry row has its own budget: instrumentation that
     nobody turned on may cost at most 2% of the window path. *)
  List.iter
    (fun b ->
      match speedup b with
      | Some s when b.name = "telemetry/disabled-overhead" ->
        if s < 0.98 then
          Printf.printf
            "WARNING: disabled telemetry exceeds the 2%% overhead budget (%.3fx)\n" s
      | Some s when b.name = "run_window/compiled" ->
        (* The compiled data path's headline claim: >= 5x over the
           Refsim reference's window at full scale; at smoke scale warmup
           and fixed costs dilute the window, so the floor relaxes to 2x. *)
        let floor_ = if smoke then 2.0 else 5.0 in
        if s < floor_ then
          Printf.printf "WARNING: %s below the %.0fx compiled floor (%.2fx)\n" b.name floor_ s
      | Some s when s < 1.0 ->
        Printf.printf "WARNING: %s slower than baseline (%.2fx)\n" b.name s
      | _ -> ())
    benches
