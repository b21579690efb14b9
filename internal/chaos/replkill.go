// replkill.go is the replica-fault crash harness: the kill harness of
// kill.go lifted onto the replicated backend. Each round runs a worker
// process whose durable counter/log workload sits on a replica.Set over
// N store directories, SIGKILLs it at a random point, AND injures one
// replica directory — wiping it, corrupting its files, or injecting
// disk faults into its I/O — before or during the round. The campaign
// checks that every incarnation recovers to an NRL-consistent state
// containing every acknowledged append, and that a leader whose disk
// dies is replaced by a promoted follower instead of leaving the set
// sticky read-only: with one fault per round and three replicas, a
// healthy majority always exists, so a degraded exit is a violation.
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
	"sync/atomic"
	"time"

	schedtrace "nrl/internal/chaos/trace"
	"nrl/internal/durable"
	"nrl/internal/nvm"
	"nrl/internal/persist"
	"nrl/internal/proc"
	"nrl/internal/replica"
	"nrl/internal/vclock"
)

// ReplicaFault names the per-round replica-directory injury.
type ReplicaFault int

// The three fault kinds of the replica campaign, applied to one
// directory per round.
const (
	// FaultWipe deletes the directory outright before the round — total
	// loss of one replica, healed back in by snapshot transfer.
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

// ReplKillWorkerConfig configures one replica-worker incarnation.
type ReplKillWorkerConfig struct {
	// Root holds the replica directories Root/r0 .. Root/r{Replicas-1}.
	Root string
	// Replicas is the replica-set size (identical every incarnation).
	Replicas int
	// Appends is how many log appends to perform after recovery.
	Appends int
	// Capacity is the log capacity in records (identical every
	// incarnation; the backend identifies words by allocation order).
	Capacity int
	// FaultDir, when >= 0, selects the replica directory whose I/O is
	// dead this incarnation; FaultAfter is the append count after which
	// the fault arms (0 = dead from process start, Open included).
	// FaultFor, when > 0, disarms the fault again FaultFor appends
	// later — a transient outage the set must heal from; 0 leaves the
	// directory dead for the whole incarnation.
	FaultDir   int
	FaultAfter int
	FaultFor   int
	// Seed seeds the incarnation's replica-set jitter streams (ship
	// retry and heal backoff). The campaign derives one per round from
	// its master seed, so every incarnation's backoff schedule is a
	// recorded, replayable choice instead of an ad-hoc constant.
	Seed int64
	// Verify makes the incarnation recover, verify and exit without
	// appending (the campaign's final no-kill check, never faulted).
	Verify bool
}

// ReplicaDirs returns the member directories of a replica-set root, in
// index order: root/r0 .. root/r{n-1}.
func ReplicaDirs(root string, n int) []string {
	ds := make([]string, n)
	for i := range ds {
		ds[i] = filepath.Join(root, fmt.Sprintf("r%d", i))
	}
	return ds
}

// RunReplKillWorker runs one incarnation of the replica kill-harness
// workload, writing the kill.go line protocol to out, extended with one
// set-status line after recovery and another before exit:
//
//	set leader=<idx> epoch=<e> promos=<n> heals=<n>
//
// leader is the serving directory's index in the set (-1 if it is not a
// member path, which would itself be a bug). The campaign reads the
// last set line of each round: promos > 0 is the proof that a faulted
// leader ended in promotion rather than read-only.
//
// The returned code is one of the KillWorker constants.
func RunReplKillWorker(cfg ReplKillWorkerConfig, out io.Writer) int {
	hook := func(p nvm.Phase) { fmt.Fprintf(out, "phase %s\n", p) }
	dirs := ReplicaDirs(cfg.Root, cfg.Replicas)
	var armed atomic.Bool
	if cfg.FaultDir >= 0 && cfg.FaultAfter <= 0 {
		armed.Store(true)
	}
	opts := replica.Options{
		Dirs: dirs,
		Persist: persist.Options{
			PhaseHook: hook,
			// Small segments so rotation and checkpointing run inside
			// every incarnation, putting segment boundaries under the
			// kills.
			SegmentBytes:    4 << 10,
			CheckpointBytes: 32 << 10,
			// A dead directory must be detected and failed over well
			// inside the campaign's kill window, so the retry budget is
			// short and its backoff tight. The default, patient budget
			// is exercised by the persist package's own tests.
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

	leaderIdx := func() int {
		ld := s.LeaderDir()
		for i, d := range dirs {
			if d == ld {
				return i
			}
		}
		return -1
	}
	setLine := func() {
		st := s.Status()
		fmt.Fprintf(out, "set leader=%d epoch=%d promos=%d heals=%d\n",
			leaderIdx(), st.Epoch, st.Promotions, st.Heals)
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
	fmt.Fprintf(out, "recovered len=%d ctr=%d torn=0 repaired=0\n", n, sum)
	setLine()
	if cfg.Verify {
		fmt.Fprintln(out, "done")
		return KillWorkerOK
	}

	// Reconciliation: complete the in-flight increment a kill between
	// append and inc left behind.
	for ctr.Read() < log.Len() {
		ctr.Inc(1)
		if err := mem.Err(); err != nil {
			fmt.Fprintf(out, "degraded %v\n", err)
			return KillWorkerDegraded
		}
	}

	for i := 0; i < cfg.Appends; i++ {
		if cfg.FaultDir >= 0 && i >= cfg.FaultAfter {
			if cfg.FaultFor > 0 && i >= cfg.FaultAfter+cfg.FaultFor {
				armed.Store(false)
			} else {
				armed.Store(true)
			}
		}
		v := log.Len() + 1
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
		fmt.Fprintf(out, "len %d\n", v)
		// Per-append set line: a killed incarnation still reports the
		// promotions and heals it lived through.
		setLine()
	}
	fmt.Fprintln(out, "done")
	return KillWorkerOK
}

// ReplKillConfig configures a replica-fault kill campaign.
type ReplKillConfig struct {
	// Rounds is how many worker incarnations to run (kills included).
	Rounds int
	// Seed drives the kill-delay, fault-kind and fault-target schedules.
	Seed int64
	// MaxKillDelay bounds the random delay before the SIGKILL (default
	// 60ms). A worker finishing earlier exits cleanly.
	MaxKillDelay time.Duration
	// Root is the replica-set root directory; Replicas the member count
	// (default 3).
	Root     string
	Replicas int
	// Appends is the per-incarnation append budget the Worker is built
	// with; the campaign uses it to place disk-fault arming points.
	Appends int
	// Worker builds the command for one incarnation: a process that
	// runs RunReplKillWorker against Root, with the round's disk fault
	// (faultDir < 0 for none, faultFor > 0 for a transient window), the
	// round's derived jitter seed, and Verify for the final check. Its
	// stdout must be the worker's line protocol.
	Worker func(verify bool, faultDir, faultAfter, faultFor int, seed int64) *exec.Cmd
}

// ReplKillRound records one incarnation of the replica campaign.
type ReplKillRound struct {
	Round    int
	Killed   bool
	Phase    string // last phase entered before the kill ("" if none)
	ExitCode int
	// Fault is the round's replica injury; FaultDir its target.
	Fault    ReplicaFault
	FaultDir int
	// RecoveredLen/RecoveredCtr are what the incarnation reported after
	// recovery; AckedLen the last append it acknowledged.
	RecoveredLen uint64
	RecoveredCtr uint64
	AckedLen     uint64
	// Leader/Epoch/Promos/Heals are the last set-status values the
	// incarnation reported.
	Leader int
	Epoch  uint64
	Promos uint64
	Heals  uint64
}

// ReplKillResult is a replica campaign's outcome. Failures is empty iff
// every incarnation recovered to an NRL-consistent state and no round
// ended sticky read-only.
type ReplKillResult struct {
	Rounds     []ReplKillRound
	Kills      int
	CleanExits int
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
	// Failures describes every violation; Transcripts holds the failing
	// rounds' worker output for artifacts.
	Failures    []string
	Transcripts []string
	// Trace is the campaign's schedule trace (KindReplKill): the seeded
	// fault/delay/jitter choices gate replay; the observed outcomes ride
	// along for forensics.
	Trace *schedtrace.Trace
}

// replWorkerState extends the kill.go line parser with the set-status
// line.
type replWorkerState struct {
	workerState
	setSeen bool
	leader  int
	epoch   uint64
	promos  uint64
	heals   uint64
}

func (s *replWorkerState) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	for {
		line, err := s.buf.ReadString('\n')
		if err != nil {
			s.buf.WriteString(line)
			break
		}
		l := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(l, "set ") {
			s.lines = append(s.lines, l)
			s.setSeen = true
			fmt.Sscanf(l, "set leader=%d epoch=%d promos=%d heals=%d",
				&s.leader, &s.epoch, &s.promos, &s.heals)
			continue
		}
		s.line(l)
	}
	return len(p), nil
}

// corruptReplicaDir flips a burst of random bytes in every file of one
// replica directory (seeded), inside each file's written extent — up to
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

// RunReplKillCampaign runs the seeded replica-fault SIGKILL campaign:
// Rounds worker incarnations over one replica-set root, each killed
// after a random delay (or exiting cleanly first), each with exactly
// one replica-directory fault — wipe, corrupt, or disk — targeting a
// random member. A final verify incarnation runs unfaulted and
// unkilled. It returns an error only for harness-level problems;
// violations land in ReplKillResult.Failures.
func RunReplKillCampaign(cfg ReplKillConfig) (*ReplKillResult, error) {
	if cfg.Worker == nil {
		return nil, errors.New("harness: ReplKillConfig.Worker is required")
	}
	if cfg.MaxKillDelay <= 0 {
		cfg.MaxKillDelay = 60 * time.Millisecond
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Appends <= 0 {
		cfg.Appends = 20
	}
	// Stream 0 of the campaign seed drives the schedule choices of the
	// campaign loop (fault kind, target, arming window, kill delay) —
	// and nothing else: the per-round draw count must be a constant so
	// the schedule is a pure function of the seed. Corruption byte
	// flips consume a state-dependent number of draws (they walk
	// whatever files the previous incarnation left), so each corrupting
	// round gets its own derived stream; each round's worker likewise
	// gets a split seed for the replica-set jitter inside the
	// incarnation. The virtual clock accumulates the scheduled delays
	// for the trace's vtime.
	rng := vclock.NewRand(cfg.Seed, 0)
	clk := vclock.NewClock()
	res := &ReplKillResult{
		Phases: NewPhaseCoverage(),
		Faults: map[string]int{},
		Trace: &schedtrace.Trace{Header: schedtrace.Header{
			Kind: schedtrace.KindReplKill, Seed: cfg.Seed,
			Rounds: cfg.Rounds, Appends: cfg.Appends,
			Replicas:   cfg.Replicas,
			MaxDelayUS: cfg.MaxKillDelay.Microseconds(),
		}},
	}
	dirs := ReplicaDirs(cfg.Root, cfg.Replicas)
	var acked uint64 // high-water mark of acknowledged appends
	leaderAt := 0    // serving directory index as of the last report

	fail := func(round int, st *replWorkerState, format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf("round %d: %s", round, fmt.Sprintf(format, args...)))
		res.Transcripts = append(res.Transcripts,
			fmt.Sprintf("round %d:\n  %s", round, strings.Join(st.lines, "\n  ")))
	}

	for round := 0; round < cfg.Rounds && len(res.Failures) == 0; round++ {
		// One replica injury per round. At-rest faults (wipe, corrupt)
		// land before the worker starts; the disk fault rides the worker
		// via its failpoint hook, arming partway through the append loop
		// so it can hit a serving leader mid-commit.
		fault := ReplicaFault(rng.Intn(3))
		faultDir := rng.Intn(cfg.Replicas)
		faultAfter, faultFor := 0, 0
		if fault == FaultDisk {
			faultAfter = rng.Intn(cfg.Appends/2 + 1)
			// Half the disk outages are transient — the directory comes
			// back a few appends later and the set must heal it in.
			if rng.Intn(2) == 0 {
				faultFor = 1 + rng.Intn(3)
			}
		}
		res.Faults[fault.String()]++
		if faultDir == leaderAt {
			res.LeaderFaults++
		}
		switch fault {
		case FaultWipe:
			if err := os.RemoveAll(dirs[faultDir]); err != nil {
				return res, fmt.Errorf("harness: wipe %s: %w", dirs[faultDir], err)
			}
		case FaultCorrupt:
			if err := corruptReplicaDir(dirs[faultDir], vclock.NewRand(cfg.Seed, 1<<20|round)); err != nil {
				return res, fmt.Errorf("harness: corrupt %s: %w", dirs[faultDir], err)
			}
		}

		st := &replWorkerState{}
		var stderr bytes.Buffer
		diskDir := -1
		if fault == FaultDisk {
			diskDir = faultDir
		}
		workerSeed := proc.SplitSeed(cfg.Seed, round+1)
		cmd := cfg.Worker(false, diskDir, faultAfter, faultFor, workerSeed)
		cmd.Stdout = st
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			return res, fmt.Errorf("harness: start worker: %w", err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()

		delay := rng.Duration(cfg.MaxKillDelay) + time.Millisecond
		clk.Advance(delay)
		killed := false
		var waitErr error
		select {
		case waitErr = <-done:
		case <-time.After(delay): //nrl:ignore real SIGKILL harness: the wait must elapse on the wall clock to race a live process; the delay itself is drawn from the seeded stream above
			killed = true
			_ = cmd.Process.Kill()
			waitErr = <-done
		}

		st.mu.Lock()
		kr := ReplKillRound{
			Round: round, Killed: killed, Phase: st.lastPhase,
			Fault: fault, FaultDir: faultDir,
			RecoveredLen: st.recoveredLen, RecoveredCtr: st.recoveredCtr,
			AckedLen: st.ackedLen,
			Leader:   st.leader, Epoch: st.epoch, Promos: st.promos, Heals: st.heals,
		}
		recoveredSeen, doneSeen, failMsg := st.recoveredSeen, st.done, st.failMsg
		setSeen := st.setSeen
		st.mu.Unlock()
		if waitErr != nil {
			var ee *exec.ExitError
			if errors.As(waitErr, &ee) {
				kr.ExitCode = ee.ExitCode()
			} else {
				return res, fmt.Errorf("harness: wait worker: %w", waitErr)
			}
		}
		res.Rounds = append(res.Rounds, kr)
		tr := schedtrace.Round{
			Round: round, Seed: workerSeed,
			Fault: fault.String(), FaultDir: faultDir,
			FaultAfter: faultAfter, FaultFor: faultFor,
			DelayUS: delay.Microseconds(),
			VTimeUS: clk.Elapsed().Microseconds(),
			Killed:  killed, Phase: kr.Phase, Exit: kr.ExitCode,
			Recovered: kr.RecoveredLen, Acked: kr.AckedLen,
		}
		res.Trace.Rounds = append(res.Trace.Rounds, tr)

		if killed {
			res.Kills++
			phase := kr.Phase
			if phase == "" {
				phase = "idle"
			}
			res.Phases.Record(phase)
		} else {
			res.CleanExits++
			// With one fault per round and a replica majority intact, a
			// clean exit must be a success — KillWorkerDegraded here
			// means the set went sticky read-only while healthy replicas
			// existed, the exact outcome promotion exists to prevent.
			if kr.ExitCode != KillWorkerOK || !doneSeen {
				fail(round, st, "worker failed (exit %d, fault %s@r%d): %s%s",
					kr.ExitCode, fault, faultDir, failMsg, strings.TrimRight("\n"+stderr.String(), "\n"))
				continue
			}
		}
		if recoveredSeen {
			if kr.RecoveredLen < acked {
				fail(round, st, "acknowledged append lost: recovered len %d < acked %d (fault %s@r%d)",
					kr.RecoveredLen, acked, fault, faultDir)
				continue
			}
			if kr.RecoveredCtr > kr.RecoveredLen {
				fail(round, st, "counter %d ahead of log %d", kr.RecoveredCtr, kr.RecoveredLen)
				continue
			}
			if kr.RecoveredLen > acked {
				acked = kr.RecoveredLen
			}
		} else if !killed {
			fail(round, st, "clean exit without recovery report")
			continue
		}
		if setSeen {
			res.Promotions += kr.Promos
			res.Heals += kr.Heals
			leaderAt = kr.Leader
		}
		if kr.AckedLen > acked {
			acked = kr.AckedLen
		}
	}

	// Final verify incarnation: no kill, no fault. Whatever the campaign
	// left on disk must recover to the acknowledged history.
	if len(res.Failures) == 0 {
		st := &replWorkerState{}
		var stderr bytes.Buffer
		cmd := cfg.Worker(true, -1, 0, 0, proc.SplitSeed(cfg.Seed, 0))
		cmd.Stdout = st
		cmd.Stderr = &stderr
		err := cmd.Run()
		st.mu.Lock()
		res.FinalLen = st.recoveredLen
		res.FinalEpoch = st.epoch
		finalSeen, failMsg := st.recoveredSeen, st.failMsg
		finalLen := st.recoveredLen
		st.mu.Unlock()
		switch {
		case err != nil:
			fail(cfg.Rounds, st, "final verify failed: %v: %s%s", err, failMsg, strings.TrimRight("\n"+stderr.String(), "\n"))
		case !finalSeen:
			fail(cfg.Rounds, st, "final verify printed no recovery report")
		case finalLen < acked:
			fail(cfg.Rounds, st, "final state lost acknowledged appends: len %d < acked %d", finalLen, acked)
		}
	}
	return res, nil
}
