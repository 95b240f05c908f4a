(** Structure-of-arrays binary min-heap: float keys, int payloads.

    The shared index-heap under every float-keyed scheduler in the repo:
    {!Arrival.merge}'s k-way merge, {!Superpose}'s per-source event
    scheduler, {!Mg_inf}'s departure heap (integer sample indices as
    exact float keys — only popped key values matter, so the counts
    are those of an int heap), and (through a slot-index facade) the
    generic
    [Queueing.Heap]. Keys live in a [float array] and payloads in an
    [int array], so no operation ever allocates a tuple, an option or a
    boxed float; after the backing arrays reach peak size, every
    operation below is allocation-free — the contract the zero-alloc
    queueing fast path asserts with [Gc.minor_words]. *)

type t

val create : ?cap:int -> unit -> t
(** Empty heap with initial capacity [cap] (default 16; clamped to at
    least 1). The arrays double on demand. *)

val size : t -> int
val is_empty : t -> bool

val push : t -> float -> int -> unit

val min_key : t -> float
val min_val : t -> int
(** Key/payload of the minimum element. Precondition: non-empty
    (unchecked beyond the array bounds check); ties surface in
    unspecified order, like [Queueing.Heap]. *)

val pop_min : t -> unit
(** Remove the minimum element. Precondition: non-empty. *)

val replace_min : t -> float -> int -> unit
(** [replace_min t k v] is [pop_min t; push t k v] in one sift — the
    k-way merge's advance-head step. Precondition: non-empty. *)
