package replica

import (
	"fmt"
	"sort"

	"nrl/internal/nvm"
	"nrl/internal/persist"
)

// promoteLocked replaces a degraded leader with the follower holding
// the longest prefix. It runs quiescent: no leader or follower sync is
// in flight. On return with nil the Set has a serving leader under a
// strictly higher epoch, durable on the new leader and stamped on every
// surviving mirror, with the allocation shadow replayed — ready for the
// unacknowledged batches to reapply.
func (s *Set) promoteLocked() error {
	if ph := s.opts.Persist.PhaseHook; ph != nil {
		ph(nvm.PhaseFailover)
	}
	s.leader.Close()
	oldDir := s.leaderDir

	// Rank candidates by their credentials: healthy followers by their
	// mirror's live position, faulted directories by a read-only scan.
	type cand struct {
		f *follower
		Candidate
	}
	var cands []cand
	for _, f := range s.followers {
		c := Candidate{Index: s.dirIdx[f.dir]}
		if f.healthy {
			c.Epoch, c.Prefix = f.mirror.Epoch(), f.mirror.Seq()
		} else if rep, err := persist.ScanDir(f.dir); err == nil {
			c.Epoch, c.Prefix = rep.Epoch, rep.Prefix
		} else {
			continue
		}
		cands = append(cands, cand{f, c})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Outranks(cands[j].Candidate) })

	for _, c := range cands {
		f := c.f
		if f.mirror != nil {
			f.mirror.Close()
			f.mirror = nil
		}
		nl, err := s.openLeader(f.dir)
		if err != nil {
			s.backoffLocked(f)
			continue
		}
		// The new epoch must be durable on the new leader before any
		// record commits under it: once it is, no stale peer — the
		// demoted leader included — can outrank this history in a
		// future election, which is what makes acking under the new
		// epoch safe.
		newEpoch := s.epoch + 1
		if nl.Epoch() >= newEpoch {
			newEpoch = nl.Epoch() + 1
		}
		if err := nl.SetEpoch(newEpoch); err != nil {
			nl.Close()
			s.backoffLocked(f)
			continue
		}

		// The promoted directory takes leadership; the demoted leader's
		// directory takes the vacated follower slot, faulted, eligible
		// for healing at the next commit (its stale-epoch tail will be
		// wiped by the snapshot install catch-up).
		s.leader = nl
		s.leaderDir = f.dir
		f.dir = oldDir
		f.healthy = false
		f.appended, f.durable = 0, 0
		f.needSnap = true
		f.fails = 0
		f.nextHeal = s.commits
		s.epoch = newEpoch
		s.promotions++

		// Stamp the epoch on every surviving mirror and re-align it
		// with the new leader, so the quorum counted at the next ack is
		// a quorum of the new epoch.
		for _, g := range s.followers {
			if g == f || !g.healthy {
				continue
			}
			if err := g.mirror.SetEpoch(newEpoch); err != nil {
				g.needSnap = true
				s.backoffLocked(g)
				continue
			}
			if err := s.catchUpLocked(g); err != nil {
				s.backoffLocked(g)
			}
		}

		// Replay the allocation shadow: words grown but never committed
		// exist in no durable page, so the new leader's image must
		// cover them before the unacknowledged batches reapply and
		// persist their pages.
		for a, init := range s.grows {
			if _, ok := nl.Recovered(a); !ok {
				nl.Grow(a, init)
			}
		}
		// The flight recorder moved homes with the leadership: mark the
		// whole ring dirty so the next commit rewrites it into the new
		// leader's region file.
		if rs, ok := s.box.(interface{ Resync() }); ok {
			rs.Resync()
		}
		return nil
	}
	return fmt.Errorf("replica: no promotable follower among %d", len(s.followers))
}
