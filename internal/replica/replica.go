package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
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
	// moves. A follower's hook sees "wal.fsync" from the follower's own
	// sync goroutine, concurrently with the committers' "wal.append".
	InjectFor func(i int) func(op string) error
	// ShipRetries is how many times a failed record append or snapshot
	// install on one follower is retried beyond the first attempt
	// before the follower is marked faulted (default 2; negative for
	// none). A failed follower sync is never retried.
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
// while attached, its sync progress, and the fault/heal bookkeeping.
type follower struct {
	dir     string
	mirror  *persist.Mirror // nil while detached; a faulted one stays open until its heal
	healthy bool
	// appended is the highest sequence shipped to the mirror; durable
	// the highest its sync goroutine has fenced. Quorum counts durable.
	appended, durable uint64
	// needSnap marks a follower whose sync failed: it heals by snapshot
	// install, because a reopened mirror would read the failed records
	// back from the page cache.
	needSnap bool
	fails    int // consecutive attach/ship failures
	// nextHeal is the Set commit count at which the next heal attempt
	// is due — backoff is measured in commits, not wall time, so it is
	// deterministic under test.
	nextHeal uint64
}

// inflight is one commit between its append and its acknowledgement.
type inflight struct {
	// batch is a copy of the commit's batch, reapplied on a promoted
	// leader.
	batch []nvm.WordUpdate
	seq   uint64 // the record's sequence on the current leader
	// durable reports that the current leader's Sync returned nil.
	durable bool
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
	// snapPending marks a leader checkpoint awaiting distribution. The
	// leader's Checkpoint hook sets it from a Sync, outside mu.
	snapPending atomic.Bool
	wg          sync.WaitGroup // the follower sync goroutines

	mu sync.Mutex
	// cond, on mu, announces every commit step, every follower sync and
	// every lifted hold.
	cond      sync.Cond
	leader    *persist.File
	leaderDir string
	followers []*follower
	epoch     uint64
	rng       *vclock.Rand
	// grows shadows every Grow since Open: words allocated above but
	// not yet committed exist in no durable page, so a promoted leader
	// must have them replayed before the unacknowledged batches reapply.
	grows map[nvm.Addr]uint64
	// pending holds the commits appended and not yet acknowledged, in
	// sequence order. The t-th commit since Open is acknowledged t-th,
	// so until then it sits at pending[t-commits-1].
	pending []inflight
	// syncs counts the leader and follower syncs running outside mu;
	// leaderFailed reports that the leader failed an Append or Sync.
	syncs        int
	leaderFailed bool
	// hold counts the parties waiting for quiescence — a failover, a
	// forced or due heal, a snapshot distribution, Close; no commit
	// appends while it is positive.
	hold       int
	closed     bool
	commits    uint64
	promotions uint64
	heals      uint64
	degraded   error
}

// errClosed is what Commit returns once Close has begun.
var errClosed = errors.New("replica: set closed")

// MemberDirs is the layout of a replica-set root: member i is the
// directory root/r<i>.
func MemberDirs(root string, n int) []string {
	ds := make([]string, n)
	for i := range ds {
		ds[i] = filepath.Join(root, fmt.Sprintf("r%d", i))
	}
	return ds
}

// Candidate is one member's standing in an election: its index in the
// member list, and the epoch and durable prefix its store holds.
type Candidate struct {
	Index         int
	Epoch, Prefix uint64
}

// Outranks is the election rule, the one Open, promotion and the
// read-only tools share: the higher epoch wins, then the longer durable
// prefix, then the lower member index.
func (a Candidate) Outranks(b Candidate) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	if a.Prefix != b.Prefix {
		return a.Prefix > b.Prefix
	}
	return a.Index < b.Index
}

// Scan reads each member directory's durable credentials read-only —
// no election, no healing — and returns the index of the member the
// next Open would elect among those that scan clean, or -1 if none
// does.
func Scan(dirs []string) (reps []persist.ScanReport, errs []error, elect int) {
	reps = make([]persist.ScanReport, len(dirs))
	errs = make([]error, len(dirs))
	elect = -1
	var best Candidate
	for i, d := range dirs {
		reps[i], errs[i] = persist.ScanDir(d)
		c := Candidate{Index: i, Epoch: reps[i].Epoch, Prefix: reps[i].Prefix}
		if errs[i] == nil && (elect < 0 || c.Outranks(best)) {
			elect, best = i, c
		}
	}
	return reps, errs, elect
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
	s.cond.L = &s.mu
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
	cands := make([]Candidate, 0, len(opts.Dirs))
	for i, d := range opts.Dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
		rep, err := persist.ScanDir(d)
		if err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
		cands = append(cands, Candidate{Index: i, Epoch: rep.Epoch, Prefix: rep.Prefix})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Outranks(cands[j]) })
	var openErrs []error
	for _, c := range cands {
		dir := opts.Dirs[c.Index]
		ld, err := s.openLeader(dir)
		if err != nil {
			openErrs = append(openErrs, fmt.Errorf("%s: %w", dir, err))
			continue
		}
		s.leader = ld
		s.leaderDir = dir
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
		s.wg.Add(1)
		go s.syncFollower(f)
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

// Commit implements nvm.Backend as a pipeline. Under the Set's lock the
// batch takes the next sequence and its record is appended on the
// leader and on every healthy follower, in sequence order. Outside the
// lock the leader's sync runs beside the followers' sync goroutines.
// Commit returns once the leader and quorum−1 followers hold the record
// durably and every earlier commit has returned. A degraded leader is
// replaced by a promoted follower and every unacknowledged batch
// reapplied — the caller never observes the failover. Commit fails
// (sticky, wrapped in *nvm.DegradedError) only when no replica can
// serve or quorum cannot be restored.
func (s *Set) Commit(batch []nvm.WordUpdate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.hold > 0 && s.degraded == nil && !s.closed {
		s.cond.Wait()
	}
	if s.degraded != nil {
		return s.degraded
	}
	if s.closed {
		return errClosed
	}
	n := len(s.pending)
	t := s.commits + uint64(n) + 1
	// The batch is copied into the slot's own buffer, reused across
	// commits: the caller's (nvm.Memory's flush buffer) is not retained.
	if n == cap(s.pending) {
		s.pending = append(s.pending, inflight{})
	}
	s.pending = s.pending[:n+1]
	e := &s.pending[n]
	e.batch, e.seq, e.durable = append(e.batch[:0], batch...), 0, false
	if p, err := s.leader.Append(batch); err != nil {
		s.leaderFailed = true
	} else {
		e.seq = p.Seq()
		ld := s.leader
		s.syncs++
		s.cond.Broadcast() // the followers have a record to sync
		s.mu.Unlock()
		err = ld.Sync(p)
		s.mu.Lock()
		s.syncs--
		if err != nil {
			s.leaderFailed = true
		} else if s.degraded == nil {
			s.pending[t-s.commits-1].durable = true
		}
		s.cond.Broadcast()
	}
	for s.degraded == nil {
		if t == s.commits+1 { // every earlier commit has returned
			e := &s.pending[0]
			if e.durable && s.durableCountLocked(e.seq) >= s.quorum {
				s.ackLocked()
				return nil
			}
			if s.leaderFailed || (e.durable && s.reachableLocked() < s.quorum) {
				s.serviceLocked()
				continue
			}
		}
		s.cond.Wait()
	}
	return s.degraded
}

// ackLocked acknowledges the lowest pending commit, then runs the
// housekeeping it made due: heals whose backoff expired and the
// distribution of a leader checkpoint.
func (s *Set) ackLocked() {
	head := s.pending[0]
	n := copy(s.pending, s.pending[1:])
	s.pending[n] = head // its batch buffer serves a later commit
	s.pending = s.pending[:n]
	s.commits++
	if s.snapPending.Load() || s.healDueLocked() {
		s.quiesceLocked()
		s.distributeSnapLocked()
		s.healLocked(false)
		s.resumeLocked()
	}
	s.cond.Broadcast()
}

// serviceLocked clears what keeps the lowest pending commit from its
// acknowledgement, once quiescent: a failed leader is replaced, and a
// quorum the healthy members cannot make forces a heal of every faulted
// follower, then degrades the set with ErrNoQuorum if it still falls
// short.
func (s *Set) serviceLocked() {
	s.quiesceLocked()
	defer s.resumeLocked()
	if s.leaderFailed && s.failoverLocked() != nil {
		return
	}
	if e := s.pending[0]; e.durable && s.reachableLocked() < s.quorum {
		s.healLocked(true)
		if s.reachableLocked() < s.quorum {
			s.degradeLocked(fmt.Errorf("%w: %d/%d replicas durable at seq %d",
				ErrNoQuorum, s.durableCountLocked(e.seq), len(s.opts.Dirs), e.seq))
		}
	}
}

// failoverLocked replaces the failed leader by promotion and reapplies
// every unacknowledged batch on its successor, in sequence order.
func (s *Set) failoverLocked() error {
	lerr := s.leader.Err()
	for range s.opts.Dirs { // at most one promotion per member
		if perr := s.promoteLocked(); perr != nil {
			// Both branches stay on the %w chain: errors.Is must
			// resolve the root I/O failure through the set-level
			// degradation (see TestDegradedCauseChain).
			return s.degradeLocked(fmt.Errorf("replica: failover failed: %w (leader: %w)", perr, lerr))
		}
		if lerr = s.reapplyLocked(); lerr == nil {
			s.leaderFailed = false
			return nil
		}
	}
	return s.degradeLocked(fmt.Errorf("replica: no replica could serve: %w", lerr))
}

// reapplyLocked commits every pending batch on the freshly promoted
// leader. Records carry absolute page images, so a batch the old leader
// had already made durable reapplies idempotently.
func (s *Set) reapplyLocked() error {
	for i := range s.pending {
		s.pending[i].durable = false
	}
	for i := range s.pending {
		e := &s.pending[i]
		p, err := s.leader.Append(e.batch)
		if err == nil {
			err = s.leader.Sync(p)
		}
		if err != nil {
			return err
		}
		e.seq, e.durable = p.Seq(), true
	}
	return nil
}

// quiesceLocked holds back new commits and waits until no sync runs
// outside the lock: no leader sync and no follower sync. Commits still
// pending then wait on their acknowledgement, touching nothing, so
// heals, promotion and snapshot distribution may replace members under
// them. resumeLocked lifts the hold.
func (s *Set) quiesceLocked() {
	s.hold++
	for s.syncs > 0 {
		s.cond.Wait()
	}
}

func (s *Set) resumeLocked() {
	s.hold--
	s.cond.Broadcast()
}

// syncFollower is one follower slot's group-sync loop, running for the
// Set's lifetime: each pass fences every record appended to the
// follower since its last one, outside the Set's lock, so a slow member
// holds back only itself. A failed sync faults the follower with no
// retry, for a heal by snapshot.
func (s *Set) syncFollower(f *follower) {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && !(f.healthy && f.durable < f.appended) {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		m, upTo := f.mirror, f.appended
		s.syncs++
		s.mu.Unlock()
		err := m.Fence()
		s.mu.Lock()
		s.syncs--
		switch {
		case err != nil:
			f.needSnap = true
			if f.healthy {
				s.backoffLocked(f)
			}
		case f.healthy:
			f.durable = upTo
		}
		s.cond.Broadcast()
	}
}

// durableCountLocked counts the members holding seq durably: the leader
// (whose Sync returned) plus every healthy follower fenced at or past
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

// reachableLocked counts the members a pending record can still become
// durable on: the leader and every healthy follower, each of which has
// it appended. A faulted member is never waited on.
func (s *Set) reachableLocked() int {
	n := 1
	for _, f := range s.followers {
		if f.healthy {
			n++
		}
	}
	return n
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

// Close waits for the commits pending to return, stops the follower
// sync goroutines and releases every member. Nothing is flushed:
// anything acknowledged is already durable on a quorum. Commit fails
// once Close has begun.
func (s *Set) Close() error {
	s.mu.Lock()
	s.hold++
	for (len(s.pending) > 0 && s.degraded == nil) || s.syncs > 0 {
		s.cond.Wait()
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()

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
