// Package nvm simulates byte-addressable non-volatile main memory (NVRAM)
// at word granularity, as assumed by the individual-process crash-recovery
// model of Attiya, Ben-Baruch and Hendler (PODC 2018).
//
// A Memory is a growable array of 64-bit words supporting the atomic
// primitives the paper's model provides: read, write, compare-and-swap,
// test-and-set and fetch-and-add. In the paper's model a crash is
// per-process: shared memory is never lost, only the crashed process's
// volatile registers are. The default Mode, ADR, therefore persists every
// store immediately and is the faithful rendering of the model.
//
// As an extension (documented in DESIGN.md), Buffered mode simulates a
// write-back persistence domain with explicit Flush and Fence operations,
// and a whole-system CrashAll that discards stores which were not yet made
// durable. Buffered mode lets the repository exercise the flush/fence code
// paths real NVRAM systems require, and powers the persistence-mode
// ablation experiment (E8).
//
// # Layout and scalability
//
// Words are striped over ShardCount banks of inline, cache-line-padded
// slabs (shard.go), and the banks grow through copy-on-write chunk
// tables, so every primitive resolves its word with one atomic pointer
// load and mutates it with plain atomics — the hot path takes no lock
// and performs no allocation. Persistence bookkeeping is per
// process rather than global: a Flush captures its (address, value)
// pair into the issuing process's flush set and a Fence drains exactly
// that set, the way SFENCE orders only the issuing CPU's cache-line
// write-backs. Fence cost is therefore proportional to what the caller
// actually flushed, never to the size of the memory, and CrashAll
// discards all pending flushes in O(1) by bumping an epoch. DESIGN.md
// §9 derives the cost model; EXPERIMENTS.md §9 measures it.
//
// All operations on words are safe for concurrent use, and
// Alloc/AllocArray reserve addresses with a single atomic increment —
// allocation is cheap enough to appear on hot paths, though real NRL
// programs allocate at setup and recovery time only.
//
// # Who issued an access
//
// A primitive's *At form (ReadAt, WriteAt, ..., FenceAt) takes the
// issuing process id, which selects the stats stripe it counts into and
// the flush set a flush or fence works on; the plain forms are pid 0,
// the shared stripe and set of raw accesses. That pid is all the memory
// knows about its callers: it emits no trace events. Package proc
// traces the primitives a Ctx issues, attributed to the inner-most
// pending operation, and raw accesses are visible in Stats only.
package nvm
