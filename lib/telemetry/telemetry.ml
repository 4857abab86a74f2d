module Histogram = Histogram
module Metrics = Metrics
module Trace = Trace

type t = {
  enabled : bool;
  metrics : Metrics.t;
  trace : Trace.t option;
  trace_sample_every : int;
}

let null =
  { enabled = false; metrics = Metrics.create (); trace = None; trace_sample_every = 1 }

let create ?metrics ?trace_capacity ?(trace_sample_every = 64) () =
  if trace_sample_every <= 0 then
    invalid_arg "Telemetry.create: trace_sample_every must be positive";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let trace = Option.map (fun capacity -> Trace.create ~capacity ()) trace_capacity in
  { enabled = true; metrics; trace; trace_sample_every }

let enabled t = t.enabled
let metrics t = t.metrics
let trace t = t.trace

let should_trace t ~seq =
  t.enabled && t.trace <> None && seq mod t.trace_sample_every = 0

let add_span t s = match t.trace with Some ring -> Trace.add ring s | None -> ()

let fork t =
  if not t.enabled then null
  else
    { enabled = true;
      metrics = Metrics.create ();
      trace = None;
      trace_sample_every = t.trace_sample_every }
