package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nrl/internal/persist"
	"nrl/internal/replica"
)

// isReplicaRoot reports whether dir looks like a replica-set root: a
// directory whose members are the r0, r1, ... subdirectories a
// replica.Set lays out.
func isReplicaRoot(dir string) bool {
	fi, err := os.Stat(replica.MemberDirs(dir, 1)[0])
	return err == nil && fi.IsDir()
}

// replicaMembers lists the rN member directories of a set root, in
// index order. Gaps are filled in: a wiped r1 between a surviving r0
// and r2 is still a member, and must show up as a failed scan rather
// than silently vanish from the report.
func replicaMembers(root string) []string {
	max := -1
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil
	}
	for _, e := range ents {
		var n int
		if e.IsDir() && len(e.Name()) > 1 && e.Name()[0] == 'r' {
			if _, err := fmt.Sscanf(e.Name(), "r%d", &n); err == nil && n > max {
				max = n
			}
		}
	}
	return replica.MemberDirs(root, max+1)
}

// runReplicaForensics reports a replica set's per-member durable
// credentials and where each member's log diverges from the member the
// next election would pick: the first sequence whose record fingerprint
// differs, the stale suffix an epoch fence will wipe at rejoin.
func runReplicaForensics(root string, dirs []string, w io.Writer) error {
	reps, errs, best := replica.Scan(dirs)
	fmt.Fprintf(w, "replica set %s: %d members, quorum %d\n\n", root, len(dirs), len(dirs)/2+1)
	if best < 0 {
		fmt.Fprintln(w, "no member scans clean; nothing to elect")
		for i, d := range dirs {
			fmt.Fprintf(w, "  %s: %v\n", filepath.Base(d), errs[i])
		}
		return nil
	}

	// Fingerprint index of the election winner, for divergence checks.
	elect := reps[best]
	ref := map[uint64]uint32{}
	for _, rs := range elect.RecSums {
		ref[rs.Seq] = rs.Sum
	}

	fmt.Fprintf(w, "%-6s %-8s %6s %8s %8s %6s %10s %s\n",
		"member", "role", "epoch", "prefix", "records", "torn", "divergence", "notes")
	for i, rep := range reps {
		name := filepath.Base(dirs[i])
		if errs[i] != nil {
			fmt.Fprintf(w, "%-6s %-8s %6s %8s %8s %6s %10s scan failed: %v\n",
				name, "-", "-", "-", "-", "-", "-", errs[i])
			continue
		}
		role := "follower"
		if i == best {
			role = "elect"
		}
		div := "-"
		notes := ""
		if i != best {
			switch d := divergeAt(rep, ref); {
			case d > 0:
				div = fmt.Sprintf("seq %d", d)
				notes = "suffix differs from electee; wiped at rejoin"
			case rep.Epoch < elect.Epoch:
				notes = "stale epoch; catches up at rejoin"
			case rep.Prefix < elect.Prefix:
				notes = fmt.Sprintf("behind by %d records", elect.Prefix-rep.Prefix)
			}
		}
		if !rep.ManifestOK {
			if notes != "" {
				notes += "; "
			}
			notes += "manifest damaged"
		}
		fmt.Fprintf(w, "%-6s %-8s %6d %8d %8d %6d %10s %s\n",
			name, role, rep.Epoch, rep.Prefix, rep.Records, rep.PagesTorn, div, notes)
	}

	// The electee's flight recorder is the set's: the leader is the only
	// writer. Decode it if present.
	bbox := filepath.Join(dirs[best], persist.BlackBoxName)
	if _, err := os.Stat(bbox); err == nil {
		fmt.Fprintln(w)
		return runForensics([]string{bbox}, w)
	}
	return nil
}

// divergeAt returns the first sequence where m's record fingerprint
// contradicts the reference index (0 if none): sequences the reference
// does not hold cannot contradict it.
func divergeAt(m persist.ScanReport, ref map[uint64]uint32) uint64 {
	for _, rs := range m.RecSums {
		if want, ok := ref[rs.Seq]; ok && want != rs.Sum {
			return rs.Seq
		}
	}
	return 0
}
