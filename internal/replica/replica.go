package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nrl/internal/nvm"
	"nrl/internal/persist"
	"nrl/internal/vclock"
)

// ErrNoQuorum reports that fewer than a majority of the replica
// directories hold the latest commit durably and none of the faulted
// ones could be healed in time. The Set degrades sticky (the error is
// wrapped in *nvm.DegradedError); acknowledged operations remain
// durable on the members that have them.
var ErrNoQuorum = errors.New("replica: quorum unavailable")

// Options configures a replica Set.
type Options struct {
	// Dirs are the replica store directories, created if absent. The
	// quorum is a majority: len(Dirs)/2 + 1, leader included. One
	// directory degenerates to an unreplicated store.
	Dirs []string
	// Persist is the store configuration template applied to every
	// member. Its Shipper and BlackBox fields are owned by the Set
	// (Shipper is replaced by the internal fan-out; BlackBox is
	// attached to the leader only); its Inject hook is superseded by
	// InjectFor when that is set.
	Persist persist.Options
	// InjectFor, when non-nil, supplies the failpoint hook for the
	// replica directory at index i of Dirs. Faults follow the
	// directory, not the role: a directory keeps its hook as leadership
	// moves.
	InjectFor func(i int) func(op string) error
	// ShipRetries is how many times a failed ship operation to one
	// follower is retried beyond the first attempt before the follower
	// is marked faulted (default 2; negative for none).
	ShipRetries int
	// ShipBaseDelay and ShipMaxDelay bound the jittered exponential
	// backoff between ship retries (defaults 1ms and 50ms).
	ShipBaseDelay time.Duration
	ShipMaxDelay  time.Duration
	// Seed seeds the jitter source, making retry and heal schedules
	// reproducible.
	Seed int64
	// Source, when non-nil, replaces the Seed-derived jitter stream
	// outright: ship-retry spreading and heal-backoff jitter draw from
	// it and nothing else, so a campaign can hand every Set a stream
	// split from its own master seed (vclock.NewRand / proc.SplitSeed)
	// and replay heal timing bit-for-bit.
	Source rand.Source
	// Sleep, when non-nil, replaces the sleeper used between ship
	// retries (default: Persist.Sleep, else the wall clock). A virtual
	// clock's Sleep makes retry backoff free and deterministic under
	// test; heal backoff needs no sleeper at all — it is measured in
	// commits by design.
	Sleep func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.ShipRetries == 0 {
		o.ShipRetries = 2
	}
	if o.ShipRetries < 0 {
		o.ShipRetries = 0
	}
	if o.ShipBaseDelay <= 0 {
		o.ShipBaseDelay = time.Millisecond
	}
	if o.ShipMaxDelay <= 0 {
		o.ShipMaxDelay = 50 * time.Millisecond
	}
	return o
}

// follower is one non-leader member: its directory, its mirror handle
// while attached, and the fault/heal bookkeeping.
type follower struct {
	dir     string
	mirror  *persist.Mirror // nil while faulted
	healthy bool
	durable uint64 // highest sequence fenced on this follower
	fails   int    // consecutive attach/ship failures
	// nextHeal is the Set commit count at which the next heal attempt
	// is due — backoff is measured in commits, not wall time, so it is
	// deterministic under test.
	nextHeal uint64
}

// Set is a replicated nvm.Backend over Options.Dirs. Install it with
// nvm.WithBackend exactly like a single persist.File.
type Set struct {
	opts   Options
	quorum int
	dirIdx map[string]int // original index of each directory in Options.Dirs
	sleep  func(time.Duration)
	box    persist.BlackBox // caller's recorder, for post-failover Resync
	live   *liveBox

	mu        sync.Mutex
	leader    *persist.File
	leaderDir string
	followers []*follower
	epoch     uint64
	rng       *vclock.Rand
	// grows shadows every Grow since Open: words allocated above but
	// not yet committed exist in no durable page, so a promoted leader
	// must have them replayed before the in-flight batch lands.
	grows       map[nvm.Addr]uint64
	snapPending bool // a leader checkpoint awaits distribution
	commits     uint64
	promotions  uint64
	heals       uint64
	degraded    error
}

// Open opens (creating as needed) every replica directory, elects the
// one with the highest (epoch, durable prefix) as leader, and attaches
// the rest as followers caught up to the leader's state. A directory
// whose store is too damaged to recover is skipped for leadership and
// healed back in as a follower; Open fails only if no directory
// recovers at all.
func Open(opts Options) (*Set, error) {
	opts = opts.withDefaults()
	if len(opts.Dirs) == 0 {
		return nil, errors.New("replica: no directories")
	}
	s := &Set{
		opts:   opts,
		quorum: len(opts.Dirs)/2 + 1,
		dirIdx: make(map[string]int, len(opts.Dirs)),
		grows:  make(map[nvm.Addr]uint64),
	}
	// Jitter stream: an injected Source wins; otherwise stream 1 of the
	// Set's seed (stream 0 is reserved for a campaign's own choices).
	if opts.Source != nil {
		s.rng = vclock.FromSource(opts.Source)
	} else {
		s.rng = vclock.NewRand(opts.Seed, 1)
	}
	s.sleep = opts.Sleep
	if s.sleep == nil {
		s.sleep = opts.Persist.Sleep
	}
	if s.sleep == nil {
		s.sleep = vclock.WallSleep
	}
	for i, d := range opts.Dirs {
		if _, dup := s.dirIdx[d]; dup {
			return nil, fmt.Errorf("replica: duplicate directory %s", d)
		}
		s.dirIdx[d] = i
	}
	if opts.Persist.BlackBox != nil {
		s.box = opts.Persist.BlackBox
		s.live = &liveBox{inner: s.box}
	}

	// Election: rank every directory by its durable credentials, then
	// open the best one that actually recovers.
	type cand struct {
		dir           string
		epoch, prefix uint64
		idx           int
	}
	cands := make([]cand, 0, len(opts.Dirs))
	for i, d := range opts.Dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
		rep, err := persist.ScanDir(d)
		if err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
		cands = append(cands, cand{dir: d, epoch: rep.Epoch, prefix: rep.Prefix, idx: i})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].epoch != cands[j].epoch {
			return cands[i].epoch > cands[j].epoch
		}
		if cands[i].prefix != cands[j].prefix {
			return cands[i].prefix > cands[j].prefix
		}
		return cands[i].idx < cands[j].idx
	})
	var openErrs []error
	for _, c := range cands {
		ld, err := s.openLeader(c.dir)
		if err != nil {
			openErrs = append(openErrs, fmt.Errorf("%s: %w", c.dir, err))
			continue
		}
		s.leader = ld
		s.leaderDir = c.dir
		break
	}
	if s.leader == nil {
		return nil, fmt.Errorf("replica: no directory recovers: %w", errors.Join(openErrs...))
	}
	s.epoch = s.leader.Epoch()

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range opts.Dirs {
		if d == s.leaderDir {
			continue
		}
		f := &follower{dir: d}
		s.followers = append(s.followers, f)
		s.attachLocked(f)
	}
	return s, nil
}

// openLeader opens dir as a full store wired for leadership: the
// fan-out shipper, the (single) flight recorder, and the directory's
// own failpoint hook.
func (s *Set) openLeader(dir string) (*persist.File, error) {
	po := s.storeOpts(dir)
	po.Shipper = (*fanout)(s)
	po.PhaseHook = s.opts.Persist.PhaseHook
	if s.live != nil {
		po.BlackBox = s.live
	}
	return persist.Open(dir, po)
}

// storeOpts derives the per-directory store configuration: the shared
// template stripped of role-specific hooks, plus the directory's
// failpoint.
func (s *Set) storeOpts(dir string) persist.Options {
	po := s.opts.Persist
	po.Shipper = nil
	po.BlackBox = nil
	po.PhaseHook = nil
	if s.opts.InjectFor != nil {
		if i, ok := s.dirIdx[dir]; ok {
			po.Inject = s.opts.InjectFor(i)
		}
	}
	return po
}

// Recovered implements nvm.Backend by delegating to the current leader.
func (s *Set) Recovered(a nvm.Addr) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leader.Recovered(a)
}

// Grow implements nvm.Backend: the initial value is recorded in the
// allocation shadow (replayed onto a promoted leader) and handed to the
// current leader.
func (s *Set) Grow(a nvm.Addr, init uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grows[a] = init
	s.leader.Grow(a, init)
}

// Commit implements nvm.Backend: the batch commits on the leader and is
// acknowledged once a majority of the replicas hold it durably. A
// degraded leader is replaced by a promoted follower and the batch
// reapplied — the caller never observes the failover. Commit fails
// (sticky, wrapped in *nvm.DegradedError) only when no replica can
// serve or quorum cannot be restored.
func (s *Set) Commit(batch []nvm.WordUpdate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded != nil {
		return s.degraded
	}
	var lerr error
	for range s.opts.Dirs { // at most one promotion per member
		lerr = s.leader.Commit(batch)
		if lerr != nil {
			if perr := s.promoteLocked(); perr != nil {
				// Both branches stay on the %w chain: errors.Is must
				// resolve the root I/O failure through the set-level
				// degradation (see TestDegradedCauseChain).
				return s.degradeLocked(fmt.Errorf("replica: failover failed: %w (leader: %w)", perr, lerr))
			}
			continue // reapply the batch on the promoted leader
		}
		s.commits++
		seq := s.leader.Seq()
		s.distributeSnapLocked()
		if !s.quorumLocked(seq) {
			// Quorum shortfall: heal every faulted follower right now,
			// ignoring backoff — the ack is blocked on it.
			s.healLocked(true)
			if !s.quorumLocked(seq) {
				return s.degradeLocked(fmt.Errorf("%w: %d/%d replicas durable at seq %d",
					ErrNoQuorum, s.durableCountLocked(seq), len(s.opts.Dirs), seq))
			}
		}
		s.healLocked(false)
		return nil
	}
	return s.degradeLocked(fmt.Errorf("replica: no replica could serve: %w", lerr))
}

// durableCountLocked counts the members holding seq durably: the leader
// (whose Commit returned) plus every healthy follower fenced at or past
// it.
func (s *Set) durableCountLocked(seq uint64) int {
	n := 1
	for _, f := range s.followers {
		if f.healthy && f.durable >= seq {
			n++
		}
	}
	return n
}

func (s *Set) quorumLocked(seq uint64) bool {
	return s.durableCountLocked(seq) >= s.quorum
}

// degradeLocked sticks the set-level degradation. The cause chain stays
// intact: errors.Is resolves both nvm.ErrDegraded and the root cause.
func (s *Set) degradeLocked(err error) error {
	if s.degraded == nil {
		if de := (*nvm.DegradedError)(nil); errors.As(err, &de) {
			s.degraded = de
		} else {
			s.degraded = &nvm.DegradedError{Cause: err}
		}
	}
	return s.degraded
}

// Err returns nil while the set can serve and the sticky
// *nvm.DegradedError once it cannot.
func (s *Set) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Epoch returns the current replication epoch.
func (s *Set) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Seq returns the leader's last committed sequence.
func (s *Set) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leader.Seq()
}

// LeaderDir returns the directory currently serving as leader.
func (s *Set) LeaderDir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaderDir
}

// Report returns the serving leader's recovery report: what its
// store's recovery found and repaired when it was opened as leader.
func (s *Set) Report() persist.RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leader.Report()
}

// Quorum returns the majority threshold (len(Dirs)/2 + 1).
func (s *Set) Quorum() int { return s.quorum }

// Close releases every member. Nothing is flushed: anything
// acknowledged is already durable on a quorum.
func (s *Set) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.leader.Close()
	for _, f := range s.followers {
		if f.mirror != nil {
			if cerr := f.mirror.Close(); err == nil {
				err = cerr
			}
			f.mirror = nil
		}
		f.healthy = false
	}
	return err
}

// resetDir removes every file in a replica directory, readying it for a
// fresh snapshot install. Used when a directory's history outranks the
// elected leader's: its unique suffix was never acknowledged on a
// quorum (or the directory would have won the election), so discarding
// it is what keeps the members convergent.
func resetDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// liveBox adapts the caller's flight recorder for a store that changes
// homes: Recover runs only on the first open (a later leader's region
// file must not reseed — and thereby wipe — the live ring), while Sync
// and the commit markers pass straight through.
type liveBox struct {
	inner persist.BlackBox
	used  bool
}

// SizeBytes implements persist.BlackBox.
func (b *liveBox) SizeBytes() int64 { return b.inner.SizeBytes() }

// Recover implements persist.BlackBox; only the first call reaches the
// recorder.
func (b *liveBox) Recover(img []byte) (valid, torn int) {
	if b.used {
		return 0, 0
	}
	b.used = true
	return b.inner.Recover(img)
}

// Sync implements persist.BlackBox.
func (b *liveBox) Sync(pw func(b []byte, off int64) error) error { return b.inner.Sync(pw) }

// RecordCommit implements persist.BlackBox.
func (b *liveBox) RecordCommit(seq, words uint64) { b.inner.RecordCommit(seq, words) }
