(** Per-batch route table for the DHT.

    A batch of routed DHT operations over a fixed overlay walks the same
    paths over and over: replies always route to the requester's fixed
    reply point, and replica writes repeat per key.  Within one batch the
    overlay cannot change (kills and joins commit only at quiescent batch
    boundaries), so route resolution is pure, and this table memoizes it
    for the lifetime of a batch.  It sends no messages; the DHT still hops
    the full path.

    KSelect's sorting stage does not use it: it resolves each addressed
    point to its manager once per stage in its own flat arrays (DESIGN.md
    §11). *)

type t

val create : Dpq_overlay.Ldb.t -> t
(** Build an empty table over the given overlay snapshot.  The table must
    be dropped when the overlay changes (i.e. at the batch boundary). *)

val path : t -> src:Dpq_overlay.Ldb.vnode -> point:float -> Dpq_overlay.Ldb.vnode array
(** Memoized [Ldb.route_array] keyed by (source vnode, point).  Hits return
    the same array, which is safe because forwarding only ever reads it. *)
