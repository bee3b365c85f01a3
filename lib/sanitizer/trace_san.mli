(** The NVSC-San trace sanitizer: an ASan/Memcheck-style monitor for the
    attributed reference stream.

    Attach it to a {!Nvsc_appkit.Ctx.t} {e before} running an application.
    It subscribes as an observer (attributed reference slices for the
    per-reference shadow checks, object registrations, phase changes) and
    as a frame hook (frame push/pop), then validates every delivered
    reference against the object/stack state it was emitted under:

    - references attributed to a freed heap object ([use-after-free]);
    - references that start inside an object but run past its end
      ([straddle]);
    - unattributed references landing in an allocation redzone
      ([out-of-bounds] — requires the context to be created with
      [~redzone_words > 0]);
    - unattributed stack references below the current stack pointer but
      within the stack's historical extent ([stale-stack]);
    - all other unattributed references ([unattributed]);
    - optionally, heap reads of bytes never written ([uninit-read]),
      tracked in a per-byte init bitmap seeded by writes;
    - push/pop imbalance versus the shadow stack at phase boundaries
      ([unbalanced-frames]).

    {!finish} adds teardown checks: overlapping live registrations
    ([overlap]) and heap objects allocated in the main loop still live at
    teardown ([leak]).

    Because the context flushes its emission batch before every mutation
    while a frame hook is installed, the report is identical at any batch
    capacity. *)

type t

val attach : ?check_init:bool -> Nvsc_appkit.Ctx.t -> t
(** Install the sanitizer on the context.  [check_init] (default false)
    enables the per-byte uninitialised-read tracking for heap objects
    allocated after attachment. *)

val refs_checked : t -> int

val finish : t -> Diagnostic.report
(** Flush the context, run the teardown checks and return the aggregated
    report.  Idempotent: later calls return the same report. *)
