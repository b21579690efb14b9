//go:build !linux

package persist

import "os"

// syncOutsideLock is false here: this platform promises no separate
// writeback-error report per open file description, so a commit syncs
// under the store lock — one sync at a time, in sequence order, each
// result recorded before the next record is written.
const syncOutsideLock = false

// datasync makes a WAL segment's appended records durable. Without
// fdatasync(2) it is a full fsync.
func datasync(f *os.File) error { return f.Sync() }

// preallocate is a no-op without fallocate(2): segments grow by their
// appends.
func preallocate(*os.File, int64) error { return nil }
