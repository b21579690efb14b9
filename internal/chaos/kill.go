// kill.go is the real-crash harness: where the chaos engine simulates
// crashes inside one process, this file SIGKILLs actual worker
// processes running a durable counter/log workload over a replica.Set
// of n file-backed store directories (one directory is an unreplicated
// store), restarts them, and checks that every incarnation recovers to
// an NRL-consistent state — the committed log prefix is exactly the
// acknowledged appends, the counter never runs ahead of the log, and no
// acknowledged append is ever lost. When the survivors of one injured
// member still make a quorum (n >= 3), every round also wipes,
// corrupts or disk-faults one member directory, and a worker that ends
// sticky read-only is a violation: promotion exists to prevent it.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	schedtrace "nrl/internal/chaos/trace"
	"nrl/internal/durable"
	"nrl/internal/flightrec"
	"nrl/internal/flightrec/forensics"
	"nrl/internal/nvm"
	"nrl/internal/persist"
	"nrl/internal/proc"
	"nrl/internal/replica"
	"nrl/internal/vclock"
)

// Kill-worker exit codes, above the nrlchaos CLI's own 0..3 range.
const (
	// KillWorkerOK: the incarnation recovered consistently and finished
	// its appends (or its verify pass).
	KillWorkerOK = 0
	// KillWorkerCorrupt: no member directory's store recovered
	// (persist.ErrCorrupt).
	KillWorkerCorrupt = 4
	// KillWorkerDegraded: the memory degraded to read-only mid-workload.
	KillWorkerDegraded = 5
	// KillWorkerBad: recovery surfaced an NRL-inconsistent state.
	KillWorkerBad = 6
)

// ReplicaFault names the per-round member-directory injury.
type ReplicaFault int

// The three fault kinds of a replicated campaign, applied to one
// member directory per round.
const (
	// FaultWipe deletes the directory outright before the round — total
	// loss of one member, healed back in by snapshot transfer.
	FaultWipe ReplicaFault = iota
	// FaultCorrupt flips random bytes in the directory's files before
	// the round — recovery must trim or out-elect the damage.
	FaultCorrupt
	// FaultDisk makes every physical I/O against the directory fail
	// from a chosen point of the round on — the degradation that must
	// end in promotion, not read-only.
	FaultDisk
)

// String names the fault for coverage tables.
func (f ReplicaFault) String() string {
	switch f {
	case FaultWipe:
		return "wipe"
	case FaultCorrupt:
		return "corrupt"
	case FaultDisk:
		return "disk"
	default:
		return fmt.Sprintf("ReplicaFault(%d)", int(f))
	}
}

// KillWorkerConfig configures one worker incarnation. The campaign
// builds one per round and hands it to KillConfig.Worker.
type KillWorkerConfig struct {
	// Root holds the member directories Root/r0 .. Root/r{Replicas-1},
	// shared across incarnations.
	Root string
	// Replicas is the replica-set size (identical every incarnation).
	Replicas int
	// Appends is how many log appends this incarnation performs after
	// recovery before exiting cleanly.
	Appends int
	// Capacity is the log capacity in records. It must be identical in
	// every incarnation: the backend identifies words by allocation
	// order.
	Capacity int
	// FaultDir, when >= 0, selects the member directory whose I/O is
	// dead this incarnation (-1: none); FaultAfter is the append count
	// after which the fault arms (0 = dead from process start, Open
	// included). FaultFor, when > 0, disarms the fault again FaultFor
	// appends later — a transient outage the set must heal from; 0
	// leaves the directory dead for the whole incarnation.
	FaultDir   int
	FaultAfter int
	FaultFor   int
	// Seed seeds the incarnation's replica-set jitter streams (ship
	// retry and heal backoff), so every incarnation's backoff schedule
	// is a recorded, replayable choice.
	Seed int64
	// Verify makes the incarnation recover, verify and exit without
	// appending (the campaign's final no-kill check, never faulted).
	Verify bool
}

// RunKillWorker runs one incarnation of the kill-harness workload,
// writing its line protocol to out:
//
//	phase <name>                        every persistence-phase transition
//	recovered len=L ctr=C torn=T repaired=R   once, after recovery
//	set leader=<idx> epoch=<e> promos=<n> heals=<n>   after recovery and after every ack
//	blackbox records=N torn=T maxbegun=B maxended=E inflight=I   once, after recovery
//	len <v>                             after append v is durable (the ack)
//	done                                before a clean exit
//	corrupt|degraded|bad <detail>       before a failure exit
//
// torn/repaired are the serving leader's recovery report. leader is
// the serving directory's index in the set; promos > 0 is the proof
// that a faulted leader ended in promotion rather than read-only.
//
// Every incarnation carries a flight recorder as the leader's black
// box and brackets each append with begin/end lifecycle records, so
// the blackbox line lets a one-member campaign cross-check the
// forensic story against the recovered state: an end record is only
// issued once the append is durable, and a begin record rides the
// append's own commit, hence maxended <= len <= maxbegun must hold on
// every recovery.
//
// The returned code is one of the KillWorker constants. The function
// never panics on storage failure; that is the point.
func RunKillWorker(cfg KillWorkerConfig, out io.Writer) int {
	hook := func(p nvm.Phase) { fmt.Fprintf(out, "phase %s\n", p) }
	dirs := replica.MemberDirs(cfg.Root, cfg.Replicas)
	frec := flightrec.NewRecorder(flightrec.Options{Slots: flightrec.DefaultSlots, Deep: true})
	var armed atomic.Bool
	if cfg.FaultDir >= 0 && cfg.FaultAfter <= 0 {
		armed.Store(true)
	}
	opts := replica.Options{
		Dirs: dirs,
		Persist: persist.Options{
			PhaseHook: hook,
			BlackBox:  frec,
			// Small segments so rotation and checkpointing run inside
			// every incarnation, putting segment boundaries under the
			// kills.
			SegmentBytes:    4 << 10,
			CheckpointBytes: 32 << 10,
			// A dead directory must be detected and failed over well
			// inside one round, so the retry budget is short and its
			// backoff tight. The default, patient budget is exercised
			// by the persist package's own tests.
			Retries:   2,
			BaseDelay: 200 * time.Microsecond,
			MaxDelay:  2 * time.Millisecond,
		},
		ShipBaseDelay: 200 * time.Microsecond,
		ShipMaxDelay:  2 * time.Millisecond,
		Seed:          cfg.Seed,
	}
	if cfg.FaultDir >= 0 {
		opts.InjectFor = func(i int) func(op string) error {
			if i != cfg.FaultDir {
				return nil
			}
			return func(op string) error {
				if armed.Load() {
					return errors.New("injected replica disk fault")
				}
				return nil
			}
		}
	}
	s, err := replica.Open(opts)
	if err != nil {
		if errors.Is(err, persist.ErrCorrupt) {
			fmt.Fprintf(out, "corrupt %v\n", err)
			return KillWorkerCorrupt
		}
		fmt.Fprintf(out, "bad open: %v\n", err)
		return KillWorkerBad
	}
	defer s.Close()

	setLine := func() {
		st := s.Status() // Members[0] is the leader
		leader := -1
		for i, d := range dirs {
			if d == st.Members[0].Dir {
				leader = i
			}
		}
		fmt.Fprintf(out, "set leader=%d epoch=%d promos=%d heals=%d\n",
			leader, st.Epoch, st.Promotions, st.Heals)
	}

	mem := nvm.New(nvm.WithMode(nvm.Buffered), nvm.WithBackend(s), nvm.WithPhaseHook(hook))
	log := durable.NewLog(mem, "log", cfg.Capacity)
	ctr := durable.NewCounter(mem, "ctr", 1)

	// Recovery check: the durable state must be NRL-consistent — the
	// log is exactly the contiguous acknowledged prefix 1..L, and the
	// counter (incremented after each append) is never ahead of it.
	n := log.Len()
	sum := ctr.Read()
	for i := uint64(0); i < n; i++ {
		if got := log.Get(i); got != i+1 {
			fmt.Fprintf(out, "bad log[%d]=%d want %d (len %d)\n", i, got, i+1, n)
			return KillWorkerBad
		}
	}
	if sum > n {
		fmt.Fprintf(out, "bad counter %d ahead of log %d\n", sum, n)
		return KillWorkerBad
	}
	rep := s.Report()
	fmt.Fprintf(out, "recovered len=%d ctr=%d torn=%d repaired=%d\n", n, sum, rep.Torn, rep.Repaired)
	setLine()

	// Forensic cross-check: replay the black box that survived the last
	// incarnation and hold its story against the recovered state. End
	// records are issued only after the append's commit returned, so no
	// durable end may exceed the recovered length; begin records ride
	// the append's own commit, so the recovered length may not exceed
	// the largest durable begin (unless torn slots ate it). Only one
	// member's recorder region is its whole history (see
	// RunKillCampaign), so the check runs for Replicas == 1.
	recs := frec.Recovered()
	fb := forensics.Reconstruct(recs, rep.BlackBoxTorn)
	var maxBegun, maxEnded uint64
	if pr := fb.Proc(1); pr != nil {
		maxBegun, maxEnded = pr.MaxBegunVal, pr.MaxEndedVal
	}
	fmt.Fprintf(out, "blackbox records=%d torn=%d maxbegun=%d maxended=%d inflight=%d\n",
		len(recs), rep.BlackBoxTorn, maxBegun, maxEnded, fb.InFlightTotal())
	if cfg.Replicas == 1 {
		if maxEnded > n {
			fmt.Fprintf(out, "bad blackbox: end %d past recovered len %d\n", maxEnded, n)
			return KillWorkerBad
		}
		if rep.BlackBoxTorn == 0 && len(recs) > 0 && n > maxBegun {
			fmt.Fprintf(out, "bad blackbox: recovered len %d but max begun %d\n", n, maxBegun)
			return KillWorkerBad
		}
	}
	if cfg.Verify {
		fmt.Fprintln(out, "done")
		return KillWorkerOK
	}

	frec.Record(flightrec.Rec{Kind: flightrec.KindRecoverEnter, P: 1, Depth: 1, Obj: "log", Op: "Reconcile", Val: n})
	// Reconciliation: complete the in-flight increment a kill between
	// append and inc left behind (recovery finishing the pending
	// operation, in NRL terms).
	for ctr.Read() < log.Len() {
		ctr.Inc(1)
		if err := mem.Err(); err != nil {
			fmt.Fprintf(out, "degraded %v\n", err)
			return KillWorkerDegraded
		}
	}
	frec.Record(flightrec.Rec{Kind: flightrec.KindRecoverExit, P: 1, Depth: 1, Obj: "log", Op: "Reconcile", Val: ctr.Read()})

	for i := 0; i < cfg.Appends; i++ {
		if cfg.FaultDir >= 0 && i >= cfg.FaultAfter {
			armed.Store(cfg.FaultFor == 0 || i < cfg.FaultAfter+cfg.FaultFor)
		}
		v := log.Len() + 1
		frec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: v})
		if _, err := log.TryAppend(v); err != nil {
			if errors.Is(err, nvm.ErrDegraded) {
				fmt.Fprintf(out, "degraded %v\n", err)
				return KillWorkerDegraded
			}
			fmt.Fprintf(out, "bad append: %v\n", err)
			return KillWorkerBad
		}
		ctr.Inc(1)
		if err := mem.Err(); err != nil {
			fmt.Fprintf(out, "degraded %v\n", err)
			return KillWorkerDegraded
		}
		// The append (and its counter bump) is durable: the end record
		// is safe to issue, and will ride the next commit.
		frec.Record(flightrec.Rec{Kind: flightrec.KindEnd, P: 1, Depth: 1, Obj: "log", Op: "Append", Val: v})
		fmt.Fprintf(out, "len %d\n", v)
		// Per-append set line: a killed incarnation still reports the
		// promotions and heals it lived through.
		setLine()
	}
	fmt.Fprintln(out, "done")
	return KillWorkerOK
}

// KillConfig configures a kill campaign.
type KillConfig struct {
	// Rounds is how many worker incarnations to run (kills included).
	Rounds int
	// Seed drives the schedule: kill points, kill delays, worker seeds
	// and (replicated) the member faults.
	Seed int64
	// MaxKillDelay bounds the random delay from exec to the SIGKILL in
	// the rounds whose kill point is start-up (default 30ms). A worker
	// finishing earlier exits cleanly.
	MaxKillDelay time.Duration
	// Root is the replica-set root; Replicas the member count (default
	// 1: one store at Root/r0).
	Root     string
	Replicas int
	// Appends and Capacity shape every incarnation (defaults 20 and
	// 16384); the schedule places kill points and fault windows within
	// Appends.
	Appends  int
	Capacity int
	// Worker builds the command for one incarnation: a process that
	// runs RunKillWorker with the given configuration. Its stdout must
	// be the worker's line protocol.
	Worker func(KillWorkerConfig) *exec.Cmd
}

// ackKillWindow bounds the drawn delay between a worker's kill-point
// ack and its SIGKILL: a few milliseconds, so the kill lands inside the
// next appends' commit pipeline.
const ackKillWindow = 3 * time.Millisecond

// KillResult is a campaign's outcome. Failures is empty iff every
// incarnation recovered to an NRL-consistent state (and, replicated,
// no round ended sticky read-only).
type KillResult struct {
	Kills      int
	CleanExits int
	// TornWrites/RepairedWrites total the torn pages the serving
	// leaders' recoveries found and repaired across all incarnations.
	TornWrites     int
	RepairedWrites int
	// BlackBoxChecks counts the rounds whose flight-recorder report was
	// cross-checked against the recovered state (one-member campaigns
	// only); BlackBoxTorn totals the torn recorder slots those reports
	// survived.
	BlackBoxChecks int
	BlackBoxTorn   int
	// Promotions and Heals total the leader failovers and follower
	// re-attachments the incarnations reported.
	Promotions uint64
	Heals      uint64
	// Faults counts rounds per fault kind; LeaderFaults how many rounds
	// faulted the directory that was serving as leader at round start.
	Faults       map[string]int
	LeaderFaults int
	// Phases records which persistence phase each kill landed in.
	Phases *PhaseCoverage
	// FinalLen is the log length of the final verify pass; FinalEpoch
	// its epoch.
	FinalLen   uint64
	FinalEpoch uint64
	// Failures describes every violation found; Transcripts holds the
	// failing rounds' worker output for artifacts.
	Failures    []string
	Transcripts []string
	// Trace is the campaign's schedule trace (KindKill): the seeded
	// choices gate replay; the observed kill phases and recovery
	// reports ride along for forensics.
	Trace *schedtrace.Trace
}

// workerState parses a worker's line protocol as it streams in. It is
// installed as the command's stdout writer, so no output is lost when
// the process is killed mid-line.
type workerState struct {
	mu  sync.Mutex
	buf bytes.Buffer

	// killAfter is the round's kill point; killPoint closes on the
	// killAfter-th len line.
	killAfter int
	killPoint chan struct{}

	lines         []string
	lastPhase     string
	recoveredSeen bool
	recoveredLen  uint64
	recoveredCtr  uint64
	torn          int
	repaired      int
	acks          int
	ackedLen      uint64
	done          bool
	failMsg       string

	setSeen bool
	leader  int
	epoch   uint64
	promos  uint64
	heals   uint64

	blackboxSeen bool
	bbRecords    int
	bbTorn       int
	bbMaxBegun   uint64
	bbMaxEnded   uint64
	bbInFlight   int
}

func newWorkerState(killAfter int) *workerState {
	st := &workerState{killAfter: killAfter, killPoint: make(chan struct{})}
	if killAfter == 0 {
		close(st.killPoint)
	}
	return st
}

func (s *workerState) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	for {
		line, err := s.buf.ReadString('\n')
		if err != nil {
			// Partial line: keep it buffered for the next Write.
			s.buf.WriteString(line)
			break
		}
		s.line(strings.TrimSuffix(line, "\n"))
	}
	return len(p), nil
}

func (s *workerState) line(l string) {
	s.lines = append(s.lines, l)
	switch {
	case strings.HasPrefix(l, "phase "):
		s.lastPhase = strings.TrimPrefix(l, "phase ")
	case strings.HasPrefix(l, "recovered "):
		s.recoveredSeen = true
		fmt.Sscanf(l, "recovered len=%d ctr=%d torn=%d repaired=%d",
			&s.recoveredLen, &s.recoveredCtr, &s.torn, &s.repaired)
	case strings.HasPrefix(l, "set "):
		s.setSeen = true
		fmt.Sscanf(l, "set leader=%d epoch=%d promos=%d heals=%d",
			&s.leader, &s.epoch, &s.promos, &s.heals)
	case strings.HasPrefix(l, "blackbox "):
		s.blackboxSeen = true
		fmt.Sscanf(l, "blackbox records=%d torn=%d maxbegun=%d maxended=%d inflight=%d",
			&s.bbRecords, &s.bbTorn, &s.bbMaxBegun, &s.bbMaxEnded, &s.bbInFlight)
	case strings.HasPrefix(l, "len "):
		fmt.Sscanf(l, "len %d", &s.ackedLen)
		if s.acks++; s.acks == s.killAfter {
			close(s.killPoint)
		}
	case l == "done":
		s.done = true
	default:
		if s.failMsg == "" {
			s.failMsg = l
		}
	}
}

// corruptReplicaDir flips a burst of random bytes in every file of one
// member directory (seeded), inside each file's written extent — up to
// its last non-zero byte, which leaves out a WAL segment's preallocated
// zero tail. Missing or empty directories are a no-op.
func corruptReplicaDir(dir string, rng *vclock.Rand) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		written := len(bytes.TrimRight(b, "\x00"))
		if err != nil || written == 0 {
			continue
		}
		// A handful of single-bit and whole-byte flips per file, so
		// damage lands in headers, records and checksums alike.
		flips := 1 + rng.Intn(8)
		for i := 0; i < flips; i++ {
			off := rng.Intn(written)
			if rng.Intn(2) == 0 {
				b[off] ^= 1 << uint(rng.Intn(8))
			} else {
				b[off] ^= 0xff
			}
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// RunKillCampaign runs the seeded SIGKILL campaign: Rounds worker
// incarnations over one replica-set root, each killed at a seeded kill
// point (or exiting cleanly first), followed by a final verify
// incarnation that is never killed or faulted. The kill point is k, drawn
// from [0, Appends]: k > 0 kills a few milliseconds after the worker's
// k-th acknowledged append, so the kill lands in the commit pipeline
// however slowly the worker started; k = 0 kills after a delay from
// exec, covering start-up and recovery. When the set survives one
// injured member with a quorum, each round also wipes, corrupts or
// disk-faults a random member. It returns an error only for
// harness-level problems (worker won't start); consistency violations
// land in KillResult.Failures.
func RunKillCampaign(cfg KillConfig) (*KillResult, error) {
	if cfg.Worker == nil {
		return nil, errors.New("harness: KillConfig.Worker is required")
	}
	if cfg.Root == "" {
		return nil, errors.New("harness: KillConfig.Root is required")
	}
	if cfg.MaxKillDelay <= 0 {
		cfg.MaxKillDelay = 30 * time.Millisecond
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Appends <= 0 {
		cfg.Appends = 20
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 14
	}
	// A member is injured only when the survivors still make a quorum;
	// otherwise the injury alone could lose acknowledged appends.
	injure := cfg.Replicas-1 >= cfg.Replicas/2+1
	// Stream 0 of the campaign seed drives the schedule choices of the
	// campaign loop (fault kind, target, arming window, kill point,
	// kill delay) — and nothing else, so the schedule is a pure
	// function of the seed, Replicas and Appends. Corruption byte flips
	// consume a state-dependent number of draws (they walk whatever
	// files the previous incarnation left), so each corrupting round
	// gets its own derived stream; each round's worker likewise gets a
	// split seed for the replica-set jitter inside the incarnation. The
	// virtual clock accumulates the scheduled delays so the trace's
	// vtime is a pure function of the seed even though the real waits
	// below run on the wall clock.
	rng := vclock.NewRand(cfg.Seed, 0)
	clk := vclock.NewClock()
	res := &KillResult{
		Phases: NewPhaseCoverage(),
		Faults: map[string]int{},
		Trace: &schedtrace.Trace{Header: schedtrace.Header{
			Kind: schedtrace.KindKill, Seed: cfg.Seed, Rounds: cfg.Rounds,
			Appends: cfg.Appends, Capacity: cfg.Capacity, Replicas: cfg.Replicas,
			MaxDelayUS: cfg.MaxKillDelay.Microseconds(),
		}},
	}
	dirs := replica.MemberDirs(cfg.Root, cfg.Replicas)
	var acked uint64 // high-water mark of acknowledged appends
	leaderAt := 0    // serving directory index as of the last report

	fail := func(round int, st *workerState, format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf("round %d: %s", round, fmt.Sprintf(format, args...)))
		res.Transcripts = append(res.Transcripts,
			fmt.Sprintf("round %d:\n  %s", round, strings.Join(st.lines, "\n  ")))
	}

	for round := 0; round < cfg.Rounds && len(res.Failures) == 0; round++ {
		wc := KillWorkerConfig{
			Root: cfg.Root, Replicas: cfg.Replicas,
			Appends: cfg.Appends, Capacity: cfg.Capacity,
			FaultDir: -1, Seed: proc.SplitSeed(cfg.Seed, round+1),
		}
		tr := schedtrace.Round{Round: round, Seed: wc.Seed}
		// At most one member injury per round. At-rest faults (wipe,
		// corrupt) land before the worker starts; the disk fault rides
		// the worker via its failpoint hook, arming partway through the
		// append loop so it can hit a serving leader mid-commit.
		faultNote := ""
		if injure {
			fault := ReplicaFault(rng.Intn(3))
			dir := rng.Intn(cfg.Replicas)
			if fault == FaultDisk {
				wc.FaultDir = dir
				wc.FaultAfter = rng.Intn(cfg.Appends/2 + 1)
				// Half the disk outages are transient — the directory
				// comes back a few appends later and the set must heal
				// it in.
				if rng.Intn(2) == 0 {
					wc.FaultFor = 1 + rng.Intn(3)
				}
			}
			res.Faults[fault.String()]++
			if dir == leaderAt {
				res.LeaderFaults++
			}
			switch fault {
			case FaultWipe:
				if err := os.RemoveAll(dirs[dir]); err != nil {
					return res, fmt.Errorf("harness: wipe %s: %w", dirs[dir], err)
				}
			case FaultCorrupt:
				if err := corruptReplicaDir(dirs[dir], vclock.NewRand(cfg.Seed, 1<<20|round)); err != nil {
					return res, fmt.Errorf("harness: corrupt %s: %w", dirs[dir], err)
				}
			}
			tr.Fault, tr.FaultDir, tr.FaultAfter, tr.FaultFor = fault.String(), dir, wc.FaultAfter, wc.FaultFor
			faultNote = fmt.Sprintf(" (fault %s@r%d)", fault, dir)
		}
		// The kill point: a delay from exec (k = 0), or a short delay
		// after the k-th ack.
		k := rng.Intn(cfg.Appends + 1)
		var delay time.Duration
		if k == 0 {
			delay = rng.Duration(cfg.MaxKillDelay) + time.Millisecond
		} else {
			delay = rng.Duration(ackKillWindow)
		}
		clk.Advance(delay)

		st := newWorkerState(k)
		var stderr bytes.Buffer
		cmd := cfg.Worker(wc)
		cmd.Stdout = st
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			return res, fmt.Errorf("harness: start worker: %w", err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()

		killed := false
		var waitErr error
		select {
		case waitErr = <-done:
		case <-st.killPoint:
			select {
			case waitErr = <-done:
			case <-time.After(delay): //nrl:ignore real SIGKILL harness: the wait must elapse on the wall clock to race a live process; the delay itself is drawn from the seeded stream above
				killed = true
				_ = cmd.Process.Kill()
				waitErr = <-done
			}
		}

		exit := 0
		if waitErr != nil {
			var ee *exec.ExitError
			if !errors.As(waitErr, &ee) {
				return res, fmt.Errorf("harness: wait worker: %w", waitErr)
			}
			exit = ee.ExitCode()
		}
		// The worker has exited and its output is drained: st is final.
		tr.KillAfter, tr.DelayUS, tr.VTimeUS = k, delay.Microseconds(), clk.Elapsed().Microseconds()
		tr.Killed, tr.Phase, tr.Exit = killed, st.lastPhase, exit
		tr.Recovered, tr.Acked = st.recoveredLen, uint64(st.acks)
		res.Trace.Rounds = append(res.Trace.Rounds, tr)
		res.TornWrites += st.torn
		res.RepairedWrites += st.repaired

		if killed {
			res.Kills++
			phase := st.lastPhase
			if phase == "" {
				phase = "idle" // killed before any transition (startup/recovery)
			}
			res.Phases.Record(phase)
		} else {
			res.CleanExits++
			// A clean exit must be a success. Replicated, with one
			// injury per round and a quorum intact, KillWorkerDegraded
			// means the set went sticky read-only while healthy members
			// existed, the exact outcome promotion exists to prevent.
			if exit != KillWorkerOK || !st.done {
				fail(round, st, "worker failed (exit %d)%s: %s%s",
					exit, faultNote, st.failMsg, strings.TrimRight("\n"+stderr.String(), "\n"))
				continue
			}
		}
		if st.recoveredSeen {
			if st.recoveredLen < acked {
				fail(round, st, "acknowledged append lost: recovered len %d < acked %d%s", st.recoveredLen, acked, faultNote)
				continue
			}
			if st.recoveredCtr > st.recoveredLen {
				fail(round, st, "counter %d ahead of log %d", st.recoveredCtr, st.recoveredLen)
				continue
			}
			// Cross-check the flight-recorder story against the
			// recovered state (see RunKillWorker's protocol doc) — on a
			// one-member set only. A set's recorder region lives in the
			// leader's directory, and the next election may pick a
			// member whose region is stale (written while it last led,
			// or wiped since), so the bounds would not hold there.
			if cfg.Replicas == 1 {
				if st.blackboxSeen {
					if st.bbMaxEnded > st.recoveredLen {
						fail(round, st, "blackbox end %d past recovered len %d", st.bbMaxEnded, st.recoveredLen)
						continue
					}
					if st.bbTorn == 0 && st.bbRecords > 0 && st.recoveredLen > st.bbMaxBegun {
						fail(round, st, "blackbox max begun %d behind recovered len %d", st.bbMaxBegun, st.recoveredLen)
						continue
					}
					if st.bbTorn == 0 && st.bbInFlight > 1 {
						fail(round, st, "blackbox reports %d in-flight appends from one process", st.bbInFlight)
						continue
					}
					res.BlackBoxChecks++
					res.BlackBoxTorn += st.bbTorn
				} else if !killed {
					fail(round, st, "clean exit without blackbox report")
					continue
				}
			}
			if st.recoveredLen > acked {
				acked = st.recoveredLen
			}
		} else if !killed {
			fail(round, st, "clean exit without recovery report")
			continue
		}
		if st.setSeen {
			res.Promotions += st.promos
			res.Heals += st.heals
			leaderAt = st.leader
		}
		if st.ackedLen > acked {
			acked = st.ackedLen
		}
	}

	// Final verify incarnation: no kill, no fault. Whatever the campaign
	// left on disk must recover to the acknowledged history.
	if len(res.Failures) == 0 {
		st := newWorkerState(0)
		var stderr bytes.Buffer
		cmd := cfg.Worker(KillWorkerConfig{
			Root: cfg.Root, Replicas: cfg.Replicas,
			Appends: cfg.Appends, Capacity: cfg.Capacity,
			FaultDir: -1, Seed: proc.SplitSeed(cfg.Seed, 0), Verify: true,
		})
		cmd.Stdout = st
		cmd.Stderr = &stderr
		err := cmd.Run()
		res.FinalLen, res.FinalEpoch = st.recoveredLen, st.epoch
		switch {
		case err != nil:
			fail(cfg.Rounds, st, "final verify failed: %v: %s%s", err, st.failMsg, strings.TrimRight("\n"+stderr.String(), "\n"))
		case !st.recoveredSeen:
			fail(cfg.Rounds, st, "final verify printed no recovery report")
		case st.recoveredLen < acked:
			fail(cfg.Rounds, st, "final state lost acknowledged appends: len %d < acked %d", st.recoveredLen, acked)
		}
	}
	return res, nil
}
