type kind = Match_dep | Action_dep | Reverse_dep

module FieldSet = Set.Make (Field)

let set_of xs = FieldSet.of_list xs
let intersects a b = not (FieldSet.is_empty (FieldSet.inter a b))

let sets (t : Table.t) =
  (set_of (Table.reads_of t), set_of (Table.writes_of t))

(* Forwarding is a write to the (implicit) egress port: the last
   [Forward] executed wins, so two forwarding tables do not commute even
   though no header field conflicts. Drops stay commutative. *)
let forwards (t : Table.t) =
  List.exists
    (fun (a : Action.t) ->
      List.exists (function Action.Forward _ -> true | _ -> false) a.prims)
    t.actions

let between a b =
  let ra, wa = sets a in
  let rb, wb = sets b in
  let deps = [] in
  let deps = if intersects wa rb then Match_dep :: deps else deps in
  let deps =
    if intersects wa wb || (forwards a && forwards b) then Action_dep :: deps else deps
  in
  let deps = if intersects ra wb then Reverse_dep :: deps else deps in
  deps

let independent a b = between a b = []
