let signature asg =
  (* Must match the suffix Tune.explore appends internally. *)
  let salt = "|tune:" ^ Pipeleon.Tune.candidate_salt asg in
  fun prof hot tabs -> Incremental.pipelet_signature prof hot tabs ^ salt
