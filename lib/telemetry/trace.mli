(** Span-based tracing into a preallocated ring buffer, exportable as
    chrome://tracing ("Trace Event Format") JSON that Perfetto and
    [chrome://tracing] open directly.

    Spans are complete events ([ph = "X"]): a name, a category, a start
    timestamp, a duration, and a thread id. The simulator uses modeled
    time (window seconds scaled to microseconds, plus latency units
    within a packet) so traces are fully deterministic; the [tid] is the
    packet's global sequence number, giving each sampled packet its own
    row in the viewer. *)

type span = {
  name : string;  (** table / conditional / packet label *)
  cat : string;  (** ["table"], ["cond"], ["cache"], ["merged"], ["packet"], ... *)
  ts : float;  (** start timestamp, microseconds on the viewer's axis *)
  dur : float;  (** duration in the same unit *)
  tid : int;  (** viewer row; the sampled packet's sequence number *)
  args : (string * string) list;  (** shown in the viewer's detail pane *)
}

type t

val create : ?capacity:int -> unit -> t
(** Ring of [capacity] spans (default 65536), allocated up front. When
    full, the oldest span is overwritten and {!dropped} grows.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int
val length : t -> int

val dropped : t -> int
(** Spans overwritten since creation (or the last {!clear}). *)

val add : t -> span -> unit
val clear : t -> unit

val spans : t -> span list
(** Retained spans, oldest first. *)

val write_file : process_name:string -> t -> string -> unit
(** Write the retained spans to [path] as a Trace Event Format document:
    [{"traceEvents": [...]}] plus a process-name metadata record. Load
    it in https://ui.perfetto.dev or chrome://tracing. *)
