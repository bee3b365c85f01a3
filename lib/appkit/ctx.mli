(** Instrumentation context: the OCaml stand-in for PIN.

    The mini-applications are written against this API.  Every array read
    and write goes through it, producing a memory-reference stream with a
    synthetic — but structurally faithful — virtual address, which the
    context attributes on the fly to the memory object it falls in (global
    symbol, heap allocation site, or routine stack frame) exactly as
    NV-SCAVENGER does: stack references through the shadow stack, heap and
    global references through the bucketed object registry.

    References do not leave the context one at a time: they accumulate in a
    flat {!Nvsc_memtrace.Sink.Batch.t} and are delivered to the subscribers
    a batch at a time — when the batch fills, or at a phase boundary (the
    paper's §III-D batching of raw references).  Attribution and the
    per-object counters still happen at emission time, and the fast stack
    tallies are derived from the counters, so analysis results are
    independent of the batch capacity. *)

type t

val create : ?seed:int -> ?batch_capacity:int -> ?redzone_words:int -> unit -> t
(** [batch_capacity] sets the emission batch size (default
    {!Nvsc_memtrace.Sink.default_capacity}).  Results are invariant in it;
    only flush cadence changes.  [redzone_words] (default 0) leaves an
    unregistered gap of that many words after every global and heap
    allocation, so an out-of-bounds reference lands in no-man's-land
    instead of silently attributing to the next object — the ASan redzone
    idea, used by the NVSC-San trace sanitizer. *)

(** {1 Subscribing to the reference stream}

    Three kinds of subscriber: a plain {!Nvsc_memtrace.Sink.t} (the cache
    hierarchy), an {!observe}r — the stream a recorded trace holds, with
    the callbacks {!Nvsc_memtrace.Trace_codec.stream} takes — and a
    {!add_frame_hook} for the shadow-stack structure a trace does not
    record. *)

val add_sink : t -> Nvsc_memtrace.Sink.t -> unit
(** Subscribe a sink to the reference stream.  Batches are delivered
    whole, in subscription order; within a batch references are in program
    order and were all emitted under the same phase. *)

val observe :
  t ->
  ?on_objects:(Nvsc_memtrace.Mem_object.t list -> unit) ->
  ?on_phase:(Nvsc_memtrace.Mem_object.phase -> unit) ->
  ?on_instr:(int -> unit) ->
  ?on_persist:(Nvsc_memtrace.Persist.t -> unit) ->
  on_refs:Nvsc_memtrace.Trace_codec.on_refs ->
  unit ->
  unit
(** Subscribe an observer to the run's stream — what a recording of the
    run holds, delivered in program order through the callbacks (and
    labels) of {!Nvsc_memtrace.Trace_codec.stream}:

    - [on_objects]: each global or heap object as it is registered (a
      merged common block as the union object) or revived, and each
      routine's frame object when the routine is first entered (one
      object per [on_objects] call);
    - [on_phase]: each phase change, after the references emitted before
      it are delivered;
    - [on_instr]: committed plain-instruction counts ({!flops}), in
      program order between the slices, including the tail committed
      after the last buffered reference, delivered at a boundary flush;
    - [on_persist]: each persist action ({!section-persist});
    - [on_refs]: batch slices with their emission-time attribution
      ([obj_ids.(i)] owns reference [i], [-1] = unattributed).  A slice
      is split at instruction positions only when the observer takes
      [on_instr].

    Flushes buffered references first.  While some observer takes
    [on_objects] or [on_persist], every registry/stack mutation and
    persist action flushes the emission batch before it applies, so each
    reference is delivered under the object/stack state it was emitted in
    — regardless of batch capacity.  Several observers may coexist; each
    callback kind is delivered in subscription order.  Consumers must not
    retain the batch across callbacks. *)

(** Shadow-stack events, as seen by an {!add_frame_hook}.  Delivered in
    program order: the emission batch is flushed {e before} the push or
    pop, so observers see each reference under the stack it was emitted
    under. *)
type event =
  | Frame_push of Nvsc_memtrace.Shadow_stack.frame
      (** Routine entry: the concrete shadow frame pushed for this call
          (the routine's frame object reaches observers through
          [on_objects]). *)
  | Frame_pop of Nvsc_memtrace.Shadow_stack.frame

val add_frame_hook : t -> (event -> unit) -> unit
(** Subscribe a frame observer (several may coexist; delivered in
    subscription order).  Flushes buffered references first.  While any
    hook is installed, registry/stack mutations and persist actions flush
    the emission batch before they apply, as for {!observe}. *)

val redzone_bytes : t -> int

val clear_sinks : t -> unit
(** Flushes buffered references, then unsubscribes every sink, observer
    and frame hook. *)

val release : t -> unit
(** Flush, then return the ~2 MB emission buffers to a per-domain pool for
    the next {!create} (buffer allocation dominates context setup).  Call
    once when done with the context — {!Nvsc_core.Scavenger.run} does.
    The context remains usable afterwards, but with single-slot buffers:
    every emission flushes, so read {!pipeline_stats} before releasing. *)

val flush_refs : t -> unit
(** Deliver any buffered references (and pending instruction counts) to the
    subscribers now.  Called implicitly at phase boundaries; call it before
    reading sink-side state mid-phase. *)

val set_sampling : t -> period:int -> sample_length:int -> unit
(** Enable periodic sampling of the instrumentation itself: out of every
    [period] references, only the first [sample_length] are observed
    (attributed, tallied and forwarded to subscribers); the rest happen to the
    application but are invisible to the analysis.  This is the §III-D
    design the paper rejects — provided so the rejection can be measured
    (see {!Nvsc_core.Extensions.sampling_ablation}). *)

val sampled_out : t -> int
(** References dropped by sampling so far. *)

(** {1 Phases and iterations} *)

val set_phase : t -> Nvsc_memtrace.Mem_object.phase -> unit
(** [Pre] and [Post] are charged to iteration 0 (as in the paper's
    figure 7); [Main i] (1-based) to iteration [i].  Buffered references
    are flushed {e before} the phase changes, so phase-sensitive
    subscribers always see a reference under the phase it was emitted in. *)

val phase : t -> Nvsc_memtrace.Mem_object.phase

(** {1 Allocation} *)

val alloc_global : t -> name:string -> words:int -> Nvsc_memtrace.Mem_object.t
(** A global symbol of [words] 8-byte words.  Overlapping globals merge as
    Fortran common blocks do (see {!Nvsc_memtrace.Object_registry}). *)

val alloc_global_overlay :
  t ->
  name:string ->
  over:Nvsc_memtrace.Mem_object.t ->
  offset_words:int ->
  words:int ->
  Nvsc_memtrace.Mem_object.t
(** Declare a global symbol aliasing (part of) an existing global's range —
    a Fortran common block viewed under a different partitioning by another
    program unit (paper §III-C).  The overlapping objects merge in the
    registry into one union object (whose combined name identifies it);
    the merged object is returned.  [over] must be a global. *)

val alloc_heap : t -> site:string -> words:int -> Nvsc_memtrace.Mem_object.t
(** Heap allocation identified by its allocation-site signature.  If a dead
    object with the same signature exists it is revived (same identity and
    base, as the paper's tool treats per-iteration reallocations).  A
    *live* object with the same signature gets a fresh instance
    signature. *)

val free_heap : t -> Nvsc_memtrace.Mem_object.t -> unit

(** {1 Routines and stack frames} *)

type frame

val call : t -> routine:string -> frame_words:int -> (frame -> 'a) -> 'a
(** Enter [routine]: pushes a shadow-stack frame of [frame_words] words and
    (on first call) registers the routine's frame as a stack memory object
    keyed by the routine's synthetic starting address.  The frame is popped
    when the callback returns (also on exceptions). *)

val frame_carve : t -> frame -> words:int -> int
(** Reserve [words] within the frame and return their base address.  Raises
    [Invalid_argument] when the frame is exhausted. *)

val frame_routine : frame -> string

(** {1 Reference emission} *)

val read_addr : t -> addr:int -> unit
val write_addr : t -> addr:int -> unit
(** Emit a word-sized reference at an arbitrary owned address (the typed
    {!Farray} accessors are built on these). *)

val flops : t -> int -> unit
(** Account [n] committed non-memory instructions (arithmetic). *)

(** {1:persist Persistence (NVSC-Persist)}

    Crash-consistency annotations for applications whose state is meant to
    live in byte-addressable NVM.  The primitives are {e events}, not
    memory references: they reach observers through [on_persist] (and the
    NVT trace as v2 records), so annotating an application changes no
    reference-stream analysis.  While observed, each primitive flushes
    buffered references first, giving observers a strict happens-before
    order between the stores and the flush/fence/epoch actions that
    persist them.

    Typical checkpoint annotation ([obj] the state object, declared once
    at setup, the epoch once per main-loop iteration):
    {[
      Ctx.persist ctx obj;
      ...
      Ctx.persist_epoch ctx ~label:"checkpoint" ~checkpoint:true (fun () ->
          Ctx.flush_all ctx obj;
          Ctx.fence ctx)
    ]} *)

val persist : t -> Nvsc_memtrace.Mem_object.t -> unit
(** Declare the object persistent: the crash-consistency checker tracks
    its cache-line durability state and the placement lint requires the
    plan to keep it in NVRAM. *)

val epoch_begin : ?checkpoint:bool -> t -> label:string -> unit
val epoch_commit : ?checkpoint:bool -> t -> label:string -> unit
(** Raw epoch delimiters ([checkpoint] defaults to [false]); prefer
    {!persist_epoch}, which cannot unbalance. *)

val persist_epoch : ?checkpoint:bool -> t -> label:string -> (unit -> 'a) -> 'a
(** Run the callback inside a persist epoch: all writes to declared
    objects made since the previous commit must be flushed and fenced by
    the time the epoch commits.  [checkpoint] marks the epoch
    failure-atomic (torn-checkpoint analysis applies).  If the callback
    raises, the epoch is left open — deliberately: to the checker the
    exception is a crash inside the epoch. *)

val flush : t -> Nvsc_memtrace.Mem_object.t -> off:int -> len:int -> unit
(** Write back the cache lines covering bytes [[off, off+len)] of the
    object (clwb-style: asynchronous until the next {!fence}).  Raises
    [Invalid_argument] if the range exceeds the object. *)

val flush_all : t -> Nvsc_memtrace.Mem_object.t -> unit
(** [flush] of the whole object. *)

val fence : t -> unit
(** Drain all in-flight flushes (sfence-style ordering point). *)

(** {1 Analysis state} *)

val registry : t -> Nvsc_memtrace.Object_registry.t
val counters : t -> Nvsc_memtrace.Counters.t
val shadow : t -> Nvsc_memtrace.Shadow_stack.t
val rng : t -> Nvsc_util.Rng.t

val stack_object_of_routine : t -> string -> Nvsc_memtrace.Mem_object.t option

val stack_objects : t -> Nvsc_memtrace.Mem_object.t list
(** One frame object per routine seen so far (slow stack method). *)

val attribute_addr : t -> int -> Nvsc_memtrace.Mem_object.t option
(** Resolve an address to its memory object the way the recorder does:
    stack addresses through the shadow stack, heap/global through the
    registry.  Exposed for external monitors. *)

(** Per-iteration tallies of the fast stack method (paper §III-A, method
    1): whole-stack read/write counts and the share of all references that
    target the stack. *)
type fast_tally = {
  stack_reads : int;
  stack_writes : int;
  other_reads : int;
  other_writes : int;
}

val fast_tally : t -> iter:int -> fast_tally
val fast_tally_totals : t -> fast_tally

(** The per-reference accounting kernel, shared by live emission and
    {!Nvsc_core.Trace_run.replay}.  An attributed reference increments its
    object's counter; only an unattributed one is tallied by region.  The
    fast tallies are then derived exactly: a stack-window address only
    ever attributes to a routine (stack) object and a heap or global
    address only to a registry object, so

    - stack = the iteration's counts over the stack objects + unattributed
      stack-window references;
    - other = all attributed counts − the stack part + unattributed other
      references. *)
module Tally : sig
  type t

  val create : unit -> t

  val account :
    t ->
    Nvsc_memtrace.Counters.t ->
    addr:int ->
    obj_id:int ->
    op:Nvsc_memtrace.Access.op ->
    unit
  (** Charge one reference to the counters' current iteration: to object
      [obj_id] when [obj_id >= 0], else to the unattributed stack or other
      tally by [addr]. *)

  val fast_tally :
    t ->
    Nvsc_memtrace.Counters.t ->
    stack_ids:int list ->
    iter:int ->
    fast_tally
  (** [stack_ids]: the ids of every stack (routine frame) object. *)

  val unattributed : t -> int
  (** Unattributed references so far. *)
end

val total_references : t -> int
val unattributed : t -> int
(** References that resolved to no object (should be 0 for well-formed
    applications; exposed for tests). *)

(** {1 Pipeline self-observability} *)

type pipeline_stats = {
  batch_capacity : int;
  refs : int;  (** references entered into the emission batch *)
  batches : int;  (** batches flushed to the sinks *)
  capacity_flushes : int;
  boundary_flushes : int;
  sinks : Nvsc_memtrace.Sink.stats list;
}

val pipeline_stats : t -> pipeline_stats
