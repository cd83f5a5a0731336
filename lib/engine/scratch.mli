(** Per-domain operator scratch.

    An operator's internal arrays — hash tables, bucket codes, match
    indices, selection vectors — live only while it runs. Allocating
    them fresh puts every one over 256 words straight into the major
    heap, so they come from here instead: each domain keeps a stack of
    int arrays and a stack of byte buffers in [Domain.DLS], hands them
    out in stack order and takes them back when the enclosing {!frame}
    ends. The stacks only grow.

    The discipline: an array from {!ints} or {!bytes} is valid until the
    innermost enclosing {!frame} returns, and must not be reachable
    after it — nothing from scratch goes into a table, a column or a
    closure that outlives the frame. It is at least as long as asked
    (longer when a deeper use once needed more), so loops run to the
    requested length, never to [Array.length]; its contents are
    whatever the last user left, so a reader fills before reading.
    Frames nest; a frame opened on one domain never sees another
    domain's arrays. *)

val frame : (unit -> 'a) -> 'a
(** [frame f] runs [f] and then gives back every array handed out
    inside it, also when [f] raises. *)

val ints : int -> int array
(** [ints n] is a scratch int array of length [>= n], contents
    unspecified. *)

val ints_filled : int -> int -> int array
(** [ints_filled n x] is {!ints} [n] with cells [0 .. n - 1] set to
    [x]. *)

val bytes : int -> Bytes.t
(** [bytes n] is a scratch buffer of length [>= n], contents
    unspecified. *)

val depth : unit -> int
(** Arrays currently handed out on this domain: 0 outside every frame
    (a test's leak check). *)
