package replica

import (
	"errors"

	"nrl/internal/persist"
)

// fanout is the Set's persist.Shipper: it relays the leader's commit
// pipeline to every attached follower. The hooks run while the Set's
// own mutex is held (every call into the leader happens under it), so
// they touch Set state directly and must not lock.
type fanout Set

// Append ships one committed record to every healthy follower.
func (fn *fanout) Append(seq, epoch uint64, rec []byte) {
	_ = epoch // followers learn epochs via SetEpoch, not per record
	s := (*Set)(fn)
	for _, f := range s.followers {
		if !f.healthy || f.mirror == nil {
			continue
		}
		if !s.shipTry(func() error { return f.mirror.Append(seq, rec) }) {
			s.faultLocked(f)
		}
	}
}

// Fence fsyncs every healthy follower; a follower that lands it is
// durable at seq and counts toward quorum.
func (fn *fanout) Fence(seq uint64) {
	s := (*Set)(fn)
	for _, f := range s.followers {
		if !f.healthy || f.mirror == nil {
			continue
		}
		if s.shipTry(func() error { return f.mirror.Fence() }) {
			f.durable = seq
		} else {
			s.faultLocked(f)
		}
	}
}

// Checkpoint notes that the leader folded its log; the snapshot is
// distributed by the commit path once the leader's lock is released
// (the hook itself runs inside the leader's commit).
func (fn *fanout) Checkpoint(snapshotSeq uint64) {
	_ = snapshotSeq
	(*Set)(fn).snapPending = true
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

// faultLocked detaches a follower after a ship failure and schedules
// its heal.
func (s *Set) faultLocked(f *follower) {
	if f.mirror != nil {
		f.mirror.Close()
		f.mirror = nil
	}
	s.backoffLocked(f)
}

// backoffLocked marks a follower faulted and schedules the next heal
// attempt: exponential in consecutive failures, jittered, measured in
// commits so the schedule is deterministic under test.
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

// healLocked retries faulted followers: those whose backoff expired, or
// all of them when force is set (a quorum shortfall cannot wait).
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
// epoch, no gap) and its data file is intact, by snapshot transfer
// otherwise — which also wipes any stale-epoch tail the directory
// carried. Records cannot mend a torn data page, and a follower holding
// one its chain does not cover could never be promoted.
func (s *Set) catchUpLocked(f *follower) error {
	m := f.mirror
	if m.Epoch() == s.epoch && m.Seq() <= s.leader.Seq() && dataIntact(f.dir) {
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
				f.durable = m.Seq()
				return nil
			}
			// Record catch-up failed part-way; fall through to the
			// snapshot path, which replaces the state wholesale.
		}
	}
	img, seq, err := s.leader.Snapshot()
	if err != nil {
		return err // leader degraded: the next commit fails over
	}
	if err := m.InstallSnapshot(img, seq, s.epoch); err != nil {
		return err
	}
	f.durable = seq
	return nil
}

// distributeSnapLocked pushes the leader's latest checkpoint to every
// healthy follower, resetting their logs so follower disk usage tracks
// the leader's checkpoint cadence instead of growing without bound.
func (s *Set) distributeSnapLocked() {
	if !s.snapPending {
		return
	}
	s.snapPending = false
	img, seq, err := s.leader.Snapshot()
	if err != nil {
		return // leader degraded: the next commit fails over
	}
	for _, f := range s.followers {
		if !f.healthy || f.mirror == nil || f.mirror.SnapshotSeq() >= seq {
			continue
		}
		if s.shipTry(func() error { return f.mirror.InstallSnapshot(img, seq, s.epoch) }) {
			f.durable = seq
		} else {
			s.faultLocked(f)
		}
	}
}

// dataIntact reports whether dir's data file holds no torn page.
func dataIntact(dir string) bool {
	rep, err := persist.ScanDir(dir)
	return err == nil && rep.PagesTorn == 0
}
