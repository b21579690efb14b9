package replica

import (
	"errors"

	"nrl/internal/persist"
)

// fanout is the Set's persist.Shipper. Its Append relays each record
// the leader appends to every healthy follower; the leader's Append
// runs only under the Set's lock, so Append touches Set state directly.
// Checkpoint may run from a leader Sync outside that lock, so it only
// raises an atomic flag.
type fanout Set

// Append ships one record to every healthy follower, in sequence order.
// The followers' sync goroutines make it durable.
func (fn *fanout) Append(seq, epoch uint64, rec []byte) {
	_ = epoch // followers learn epochs via SetEpoch, not per record
	s := (*Set)(fn)
	for _, f := range s.followers {
		if !f.healthy {
			continue
		}
		if s.shipTry(func() error { return f.mirror.Append(seq, rec) }) {
			f.appended = seq
		} else {
			s.backoffLocked(f)
		}
	}
}

// Checkpoint notes that the leader folded its log; the snapshot is
// distributed by the next acknowledgement, with the Set quiescent.
func (fn *fanout) Checkpoint(snapshotSeq uint64) {
	_ = snapshotSeq
	(*Set)(fn).snapPending.Store(true)
}

// shipTry runs one follower operation under the ship retry budget:
// exponential backoff with jitter (half fixed, half random, so retry
// storms across followers decorrelate). Both halves are deterministic:
// the random half draws from the Set's seeded stream and the wait runs
// through the injectable sleeper, so a replayed campaign retries on
// the same schedule. A sequence gap aborts immediately — retrying
// cannot fix it; only catch-up can.
func (s *Set) shipTry(op func() error) bool {
	delay := s.opts.ShipBaseDelay
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return true
		}
		if errors.Is(err, persist.ErrSeqGap) || attempt >= s.opts.ShipRetries {
			return false
		}
		s.sleep(s.rng.Jitter(delay))
		delay *= 2
		if delay > s.opts.ShipMaxDelay {
			delay = s.opts.ShipMaxDelay
		}
	}
}

// backoffLocked marks a follower faulted and schedules the next heal
// attempt: exponential in consecutive failures, jittered, measured in
// acknowledged commits so the schedule is deterministic under test. A
// faulted follower's mirror stays open until its heal, which runs with
// no sync in flight.
func (s *Set) backoffLocked(f *follower) {
	f.healthy = false
	f.fails++
	n := f.fails - 1
	if n > 6 {
		n = 6
	}
	base := uint64(1) << uint(n)
	f.nextHeal = s.commits + base + uint64(s.rng.Int63n(int64(base)))
}

// healDueLocked reports whether a faulted follower's backoff expired.
func (s *Set) healDueLocked() bool {
	for _, f := range s.followers {
		if !f.healthy && s.commits >= f.nextHeal {
			return true
		}
	}
	return false
}

// healLocked retries faulted followers: those whose backoff expired, or
// all of them when force is set (a quorum shortfall cannot wait). It
// runs quiescent.
func (s *Set) healLocked(force bool) {
	for _, f := range s.followers {
		if f.healthy {
			continue
		}
		if !force && s.commits < f.nextHeal {
			continue
		}
		if f.mirror != nil {
			f.mirror.Close()
			f.mirror = nil
		}
		s.attachLocked(f)
		if f.healthy {
			s.heals++
		}
	}
}

// attachLocked (re)opens a follower's mirror and catches it up to the
// leader. On any failure the follower stays faulted with its backoff
// advanced.
func (s *Set) attachLocked(f *follower) {
	m, err := persist.OpenMirror(f.dir, s.storeOpts(f.dir))
	if err != nil {
		s.backoffLocked(f)
		return
	}
	// A directory that outranks the elected leader holds a suffix that
	// was never acknowledged on a quorum (otherwise it would have won
	// the election); reset it so it rejoins convergent. This only
	// arises when the top-ranked directory failed to recover and
	// leadership fell to the runner-up.
	if m.Epoch() > s.epoch || (m.Epoch() == s.epoch && m.Seq() > s.leader.Seq()) {
		m.Close()
		if err := resetDir(f.dir); err != nil {
			s.backoffLocked(f)
			return
		}
		if m, err = persist.OpenMirror(f.dir, s.storeOpts(f.dir)); err != nil {
			s.backoffLocked(f)
			return
		}
	}
	f.mirror = m
	if err := s.catchUpLocked(f); err != nil {
		m.Close()
		f.mirror = nil
		s.backoffLocked(f)
		return
	}
	f.healthy = true
	f.fails = 0
}

// catchUpLocked brings an attached follower to the leader's durable
// state: by records when its prefix is still in the leader's log (same
// epoch, no gap), its data file is intact and no sync of it failed; by
// snapshot transfer otherwise — which also wipes any stale-epoch tail
// the directory carried. Records cannot mend a torn data page, and a
// follower holding one its chain does not cover could never be
// promoted. Nor can they mend a failed sync: the failed records read
// back from the page cache as if they were on the disk.
func (s *Set) catchUpLocked(f *follower) error {
	m := f.mirror
	if !f.needSnap && m.Epoch() == s.epoch && m.Seq() <= s.leader.Seq() && dataIntact(f.dir) {
		if recs, ok, err := s.leader.RecordsSince(m.Seq()); err == nil && ok {
			rerr := func() error {
				for _, r := range recs {
					if err := m.Append(r.Seq, r.Rec); err != nil {
						return err
					}
				}
				return m.Fence()
			}()
			if rerr == nil {
				f.appended, f.durable = m.Seq(), m.Seq()
				return nil
			}
			// Record catch-up failed part-way; fall through to the
			// snapshot path, which replaces the state wholesale.
			f.needSnap = true
		}
	}
	img, seq, err := s.leader.Snapshot()
	if err != nil {
		return err // leader degraded: the next commit fails over
	}
	if err := m.InstallSnapshot(img, seq, s.epoch); err != nil {
		return err
	}
	f.appended, f.durable, f.needSnap = seq, seq, false
	return nil
}

// distributeSnapLocked pushes the leader's latest checkpoint to every
// healthy follower, resetting their logs so follower disk usage tracks
// the leader's checkpoint cadence instead of growing without bound. It
// runs quiescent.
func (s *Set) distributeSnapLocked() {
	if !s.snapPending.Load() {
		return
	}
	img, seq, err := s.leader.Snapshot()
	// Cleared after the Snapshot: one that checkpoints raises the flag
	// again for the image this call distributes.
	s.snapPending.Store(false)
	if err != nil {
		return // leader degraded: the next commit fails over
	}
	for _, f := range s.followers {
		if !f.healthy || f.mirror.SnapshotSeq() >= seq {
			continue
		}
		if s.shipTry(func() error { return f.mirror.InstallSnapshot(img, seq, s.epoch) }) {
			f.appended, f.durable = seq, seq
		} else {
			f.needSnap = true
			s.backoffLocked(f)
		}
	}
}

// dataIntact reports whether dir's data file holds no torn page.
func dataIntact(dir string) bool {
	rep, err := persist.ScanDir(dir)
	return err == nil && rep.PagesTorn == 0
}
