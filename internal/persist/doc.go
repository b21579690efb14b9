// Package persist is the file-backed durable backend for nvm.Memory:
// the layer that makes Flush/Fence real pwrite+fsync instead of
// simulation metadata, so the repository's recoverable objects survive
// actual process deaths.
//
// # Layout
//
// A backend lives in a directory holding two files:
//
//	data — a 64-byte header followed by checksummed, cache-line-sized
//	       pages. Page i holds words [i*6, i*6+6) of the memory's word
//	       array: 48 bytes of payload, the committing record's sequence
//	       number, the page's own index, and a CRC-32C over the rest.
//	wal-NNNNNN — a chain of redo-log segments of commit records. Each
//	       record carries the full images of every page a fence
//	       touched, and a trailing CRC over the whole record. Segments
//	       are created preallocated (fallocate on Linux), so past its
//	       last record a segment reads as zeros: an all-zero tail is
//	       the segment's clean end, anything else a torn one.
//
// With Options.BlackBox set a third file joins them:
//
//	bbox — the flight recorder's ring (package flightrec): a
//	       checksummed header plus per-record-checksummed 32-byte
//	       op-lifecycle slots. Each commit rewrites the recorder's
//	       dirty slots before the WAL sync, so the black box obeys
//	       the same flush-before-fence rules as the data, and Open
//	       replays whatever survived back into the recorder (torn
//	       slots are counted, not fatal — see RecoverInfo).
//
// # Commit protocol
//
// nvm.Memory hands the backend one Commit per fence, carrying the words
// captured by flushes since the previous fence; fences of different
// processes commit concurrently. A commit is Append then Sync, and a
// replica set calls the two halves itself (package replica), so it can
// sync its followers beside the leader:
//
//  1. Append, under the store lock, takes the next sequence, applies the
//     batch to the in-memory image, and writes one record at the active
//     segment's tail. Records therefore reach the file in sequence
//     order. The shipper's Append and the black-box rewrite run here.
//  2. Sync fdatasyncs the segment outside the lock through an open file
//     description of its own, taken before the record was written.
//     Concurrent commits' syncs overlap in the kernel; each covers its
//     own record and every earlier one. Linux reports a writeback error
//     once to each open file description whose last check predates it;
//     a description shared with an overlapping sync could lose the
//     report for this record's pages to that sync. Other platforms make
//     no such promise, so there the sync stays under the lock.
//  3. Back under the lock, Sync completes in sequence order: it returns
//     nil only once its own sync and every earlier commit's returned
//     nil, since an error on an earlier record's pages goes to that
//     record's own sync. That is the atomic commit point.
//
// The touched data pages join a rewrite queue. The commit that leaves
// none in flight rewrites the queue in place without syncing it, so no
// page image carries a record that is not yet durable. When the active
// segment or the whole log grows past its threshold, new commits wait
// until the ones in flight complete; the last of those rotates the
// segment or checkpoints — fsync the data file, start a fresh segment,
// retire the old ones — so no sync ever targets a retired segment.
// SetEpoch, Snapshot, RecordsSince and Close wait for the same quiet
// point. One fence therefore costs one fdatasync, plus an amortized
// fsync per checkpoint.
//
// # Recovery
//
// Open scans the data file, validating every page's CRC and index
// (all-zero pages are unwritten and valid), then replays the WAL's
// valid record prefix over the scanned image — the redo pass. A torn
// data page (a pwrite cut short by a kill) is repaired if the WAL
// covers it, which it always is for crashes of this process: pages are
// only rewritten after their record's sync. A torn page the WAL does
// not cover is external corruption and Open rejects the store with a
// *CorruptError (matching ErrCorrupt); it never panics and never
// silently drops committed state. A torn WAL tail is an uncommitted
// record and is discarded.
//
// # Degradation
//
// Every physical I/O is retried with capped exponential backoff, except
// that a sync syscall's own error is final: after a writeback error the
// kernel may already have marked the failed pages clean, so a retried
// sync could succeed over data that never reached the disk. When the
// budget is exhausted or a sync fails the backend sticks a
// *nvm.DegradedError
// (matching nvm.ErrDegraded) and fails every subsequent Commit
// immediately, which makes the Memory above it read-only. A Mirror
// whose sync fails likewise fails every later call. Nothing in this
// package panics on I/O failure.
//
// A commit that fails is an in-flight fence: its record may or may not
// have reached the disk before the failure — and every commit in flight
// alongside a failed sync fails with it — so a later recovery is
// allowed to observe it committed — exactly like an operation caught
// mid-flight by a crash. What degradation guarantees is the other
// direction: no acknowledged commit is ever lost, and the simulated
// durable state never runs ahead of storage.
package persist
