(** Table dependency analysis (after [34] in the paper).

    Two adjacent tables may be reordered, merged, or jointly cached only if
    doing so preserves program semantics. We use classic read/write sets:
    a table's reads are its key fields plus fields its actions read; its
    writes are fields its actions write. Packet drops commute with each
    other (a packet dropped by any ACL is dropped regardless of order), so
    [Drop] is not treated as a write. [Forward] is a write to the implicit
    egress port (last one executed wins), so two forwarding tables carry
    an {!Action_dep} even when no header field conflicts. *)

type kind =
  | Match_dep  (** A writes a field B matches or reads *)
  | Action_dep  (** A and B write a common field (output order matters) *)
  | Reverse_dep  (** A reads a field B writes (B cannot move before A) *)

val between : Table.t -> Table.t -> kind list
(** Dependencies that constrain moving [b] before [a] (given [a] currently
    executes first). Empty means the swap is semantics-preserving. *)

val independent : Table.t -> Table.t -> bool
(** [independent a b] is true when [a] and [b] can execute in either order:
    no field written by one is read, matched, or written by the other. *)
