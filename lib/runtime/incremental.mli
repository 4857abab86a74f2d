(** Program diffing for incremental reconfiguration (§6: "compute new
    optimizations as well as compile and deploy updates incrementally").

    A redeploy rarely changes the whole program: most tables survive by
    name with identical shape, and only caches/merged tables and a few
    rewired originals differ. Deploying just the delta shrinks the
    service interruption on reload-based NICs from a full reflash to a
    per-table cost. *)

type change =
  | Added of string  (** table new in the target layout *)
  | Removed of string
  | Reshaped of string  (** same name, different keys/actions/role *)
  | Entries_changed of string  (** same shape, different static entries *)

val diff : old_program:P4ir.Program.t -> new_program:P4ir.Program.t -> change list
(** Name-keyed structural diff of the table sets (control-flow rewiring
    shows up as added/removed cache or merged tables). *)

val pipelet_signature :
  Profile.t -> Pipeleon.Hotspot.hot -> P4ir.Table.t list -> string
(** Key for the optimizer's warm-start cache
    ({!Pipeleon.Search.eval_cache}): the pipelet's reach probability,
    the profile's default cache-hit estimate, and per table its name,
    entry count, shape hash, and profiled stats — all floats bucketed to
    three significant digits. Two rounds whose signatures match produce
    identical candidate evaluations, so the cached list is reusable. *)
