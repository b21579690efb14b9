// Package replica replicates the durable backend across N
// single-process replica directories, so that the persistent state
// survives not just crashes but the loss or corruption of any minority
// of its store directories.
//
// A Set implements nvm.Backend over the directories: one is opened as
// the leader (a full persist.File), the rest as followers
// (persist.Mirror — append-only stores in the exact on-disk format the
// leader recovers from). Every commit flows through the leader's WAL
// and is shipped record-by-record to the followers through the
// persist.Shipper hook; an operation is acknowledged only once a
// majority of the directories (leader included) hold it durably.
//
// # The commit pipeline
//
// Commit holds the Set's lock only to take the next sequence and append
// the record on the leader and on every healthy follower, in sequence
// order (persist.File.Append, then the shipper's Append). Outside the
// lock the committer runs the leader's sync (persist.File.Sync), while
// each follower's sync goroutine — one per follower, stopped by Close —
// fences everything appended to it since its last sync in one
// Mirror.Fence. A commit returns once the leader and quorum−1 followers
// hold its record durably and every earlier commit has returned, so a
// slow member catches up without holding back the acknowledgement.
// Heals, promotion, snapshot distribution and Close run quiescent: new
// commits wait, and no leader or follower sync is in flight.
//
// # Epochs and failover
//
// When the leader's store degrades (its local I/O retry budget is
// exhausted), the Set promotes the follower with the longest durable
// prefix: its directory is reopened as a full store, the epoch is
// bumped and made durable on the new leader and every surviving mirror
// before the first new-epoch acknowledgement, and every unacknowledged
// batch is reapplied in sequence order (records carry absolute page
// images, so the replay is idempotent). The nvm.Memory above observes
// nothing — the commits in flight across the failover complete on the
// new leader.
//
// Epochs are the fencing mechanism: a demoted leader's directory keeps
// its old epoch, and recovery elections order candidates by
// (epoch, prefix), so any suffix the stale leader wrote but never
// replicated is outranked — and wiped by a snapshot install — when the
// directory is healed back in as a follower.
//
// # Catch-up and healing
//
// Shipping failures never degrade the leader; they mark the follower
// faulted. A failed follower sync is not retried, and that follower
// heals by snapshot: its mirror may have lost pages the page cache
// still shows. Faulted followers are retried after a backoff measured in
// commits (exponential in consecutive failures, jittered so followers
// decorrelate), and healed by record catch-up when their prefix is
// still in the leader's log, or by snapshot transfer when it has been
// checkpointed away or they carry a stale-epoch tail.
//
// # Recovery
//
// Open scans every directory (persist.ScanDir, read-only), ranks them
// by (epoch, durable prefix), and opens the best one that actually
// recovers as the leader — so the reconstructed state is the longest
// acknowledged history any surviving directory holds. The remaining
// directories re-join as followers and are caught up to the winner.
package replica
