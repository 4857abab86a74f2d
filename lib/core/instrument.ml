let expected_updates_per_packet prof prog =
  List.fold_left
    (fun acc (_, p) -> acc +. p)
    0.
    (Costmodel.Cost.reach_probs prof prog)
