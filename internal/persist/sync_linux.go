//go:build linux

package persist

import (
	"errors"
	"os"
	"syscall"
)

// syncOutsideLock lets concurrent commits overlap their syncs: Linux
// reports a writeback error once to each open file description whose
// last check predates it, and each commit syncs through one of its own
// (see File.takeSyncFileLocked).
const syncOutsideLock = true

// datasync makes a WAL segment's appended records durable with
// fdatasync(2). Appends land inside the segment's preallocated extent,
// so there is no size update for the sync to journal.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		switch err {
		case nil:
			return nil
		case syscall.EINTR:
			continue
		}
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
	}
}

// preallocate reserves size bytes for a fresh segment with fallocate(2)
// mode 0: the file then reads as zeros up to size. A filesystem that
// cannot preallocate (EOPNOTSUPP) is not failing, so the segment just
// grows by its appends as it would elsewhere.
func preallocate(f *os.File, size int64) error {
	err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
	if err == nil || errors.Is(err, syscall.EOPNOTSUPP) {
		return nil
	}
	return &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
}
