package replica

import "nrl/internal/persist"

// MemberStatus describes one replica directory's current standing.
type MemberStatus struct {
	// Dir is the member's store directory.
	Dir string `json:"dir"`
	// Role is "leader", "follower", or "faulted" (a follower that
	// failed a ship or a sync and waits for its heal).
	Role string `json:"role"`
	// Seq is the member's durable prefix, what quorum counts: for a
	// follower the last sequence its sync goroutine fenced, not the last
	// one shipped to it. Epoch is the epoch it last accepted. For
	// faulted members both come from a read-only scan.
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
	// Healthy reports the member is attached and serving.
	Healthy bool `json:"healthy"`
}

// Status is a point-in-time snapshot of the set, JSON-ready for the
// nrlrepl CLI.
type Status struct {
	// Epoch is the current replication epoch; Quorum the majority
	// threshold.
	Epoch  uint64 `json:"epoch"`
	Quorum int    `json:"quorum"`
	// Commits, Promotions and Heals are lifetime totals: acknowledged
	// set commits, leader failovers, and followers healed back in.
	Commits    uint64 `json:"commits"`
	Promotions uint64 `json:"promotions"`
	Heals      uint64 `json:"heals"`
	// Degraded carries the sticky set-level error, empty while serving.
	Degraded string `json:"degraded,omitempty"`
	// Members lists every replica, leader first.
	Members []MemberStatus `json:"members"`
}

// Status reports the set's current standing.
func (s *Set) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Epoch:      s.epoch,
		Quorum:     s.quorum,
		Commits:    s.commits,
		Promotions: s.promotions,
		Heals:      s.heals,
	}
	if s.degraded != nil {
		st.Degraded = s.degraded.Error()
	}
	st.Members = append(st.Members, MemberStatus{
		Dir:     s.leaderDir,
		Role:    "leader",
		Seq:     s.leader.Seq(),
		Epoch:   s.leader.Epoch(),
		Healthy: s.leader.Err() == nil,
	})
	for _, f := range s.followers {
		ms := MemberStatus{Dir: f.dir, Role: "follower", Healthy: f.healthy}
		if f.healthy {
			ms.Seq = f.durable
			ms.Epoch = f.mirror.Epoch()
		} else {
			ms.Role = "faulted"
			if rep, err := persist.ScanDir(f.dir); err == nil {
				ms.Seq = rep.Prefix
				ms.Epoch = rep.Epoch
			}
		}
		st.Members = append(st.Members, ms)
	}
	return st
}
