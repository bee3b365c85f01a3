(** Address-to-object resolution with the paper's performance scheme.

    NV-SCAVENGER must map every effective address to the memory object it
    falls in.  §III-D describes two optimisations reproduced here:

    - the address space is divided into buckets and objects are distributed
      into the buckets covering their range; lookup masks the address to
      pick a bucket and scans only that bucket.  When objects cluster into
      few buckets the space is re-divided (here: the bucket width shrinks
      and the index is rebuilt);
    - a small software cache of recently resolved objects is consulted
      before the bucket index.  That cache is the emission context's
      ([Nvsc_appkit.Ctx]): four address ranges with round-robin
      replacement, emptied on every registry mutation, so only its misses
      reach {!lookup}.

    Heap objects allocated at the same allocation site with the same
    signature are identified as the *same* object across (de)allocations
    (§III-B), so the registry also resolves signatures to existing
    objects. *)

type t

val create : ?bucket_bits:int -> unit -> t
(** [bucket_bits] is the initial log2 of the bucket width in bytes
    (default 16, i.e. 64 KiB buckets). *)

val register : t -> Mem_object.t -> Mem_object.t
(** Index an object.  For [Global] objects that overlap an already
    registered global, the existing object(s) and the new one are replaced
    by their merged union (common-block handling) and the union is
    returned.  Otherwise the argument is returned unchanged. *)

val find_by_signature : t -> string -> Mem_object.t option
(** Resolve a (live or dead) object by identity signature. *)

val deallocate : t -> Mem_object.t -> unit
(** Mark dead (the index entry remains so late references can still be
    attributed, mirroring the paper's dead-flag scheme). *)

val revive : t -> Mem_object.t -> unit
(** Mark live again: a heap object re-allocated with the same signature. *)

val lookup : t -> int -> Mem_object.t option
(** [lookup t addr] resolves an address, preferring live objects over dead
    ones that share the address. *)

val objects : t -> Mem_object.t list
(** All registered objects, in registration order (merged globals replace
    their components). *)

val object_count : t -> int

val bucket_bits : t -> int
(** Current bucket width (log2); exposed for tests of the rebalancing
    behaviour. *)
