package chaos_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"nrl/internal/chaos"
	"nrl/internal/vclock"
)

// workerConfig decodes the incarnation's configuration, which the
// campaign tests pass to a re-executed test binary as JSON in the
// NRL_KILL_WORKER environment guard.
func workerConfig(t *testing.T) chaos.KillWorkerConfig {
	v := os.Getenv("NRL_KILL_WORKER")
	if v == "" {
		t.Skip("not a worker invocation")
	}
	var cfg chaos.KillWorkerConfig
	if err := json.Unmarshal([]byte(v), &cfg); err != nil {
		fmt.Printf("bad worker config: %v\n", err)
		os.Exit(chaos.KillWorkerBad)
	}
	return cfg
}

// TestKillWorkerProcess is not a test: it is the kill-harness worker
// body, re-executed as a subprocess by the campaign tests below. It
// does nothing unless the NRL_KILL_WORKER environment guard is set.
func TestKillWorkerProcess(t *testing.T) {
	os.Exit(chaos.RunKillWorker(workerConfig(t), os.Stdout))
}

// selfWorker builds a Worker function that re-executes this test binary
// as the worker body of the named test.
func selfWorker(t *testing.T, test string) func(chaos.KillWorkerConfig) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return func(wc chaos.KillWorkerConfig) *exec.Cmd {
		b, err := json.Marshal(wc)
		if err != nil {
			panic(err)
		}
		cmd := exec.Command(exe, "-test.run=^"+test+"$")
		cmd.Env = append(os.Environ(), "NRL_KILL_WORKER="+string(b))
		return cmd
	}
}

func runCampaign(t *testing.T, replicas, rounds, appends int, seed int64) *chaos.KillResult {
	t.Helper()
	maxDelay := killMaxDelay
	if replicas > 1 {
		maxDelay = replKillMaxDelay
	}
	res, err := chaos.RunKillCampaign(chaos.KillConfig{
		Rounds:       rounds,
		Seed:         seed,
		MaxKillDelay: maxDelay,
		Root:         t.TempDir(),
		Replicas:     replicas,
		Appends:      appends,
		Capacity:     16384,
		Worker:       selfWorker(t, "TestKillWorkerProcess"),
	})
	if err != nil {
		t.Fatalf("RunKillCampaign: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("violation: %s", f)
	}
	if t.Failed() {
		for _, tr := range res.Transcripts {
			t.Logf("transcript:\n%s", tr)
		}
	}
	return res
}

func logResult(t *testing.T, rounds int, res *chaos.KillResult) {
	t.Helper()
	t.Logf("%d rounds: kills=%d clean=%d finalLen=%d finalEpoch=%d torn=%d repaired=%d bbchecks=%d promos=%d heals=%d faults=%v leaderFaults=%d\n%s",
		rounds, res.Kills, res.CleanExits, res.FinalLen, res.FinalEpoch, res.TornWrites, res.RepairedWrites,
		res.BlackBoxChecks, res.Promotions, res.Heals, res.Faults, res.LeaderFaults, res.Phases)
}

// TestKillCampaignSmoke is the always-on quick version of the 200-round
// acceptance run, for one store and for a three-member set.
func TestKillCampaignSmoke(t *testing.T) {
	t.Run("replicas=1", func(t *testing.T) {
		res := runCampaign(t, 1, 12, 8, 7)
		if res.Kills+res.CleanExits != 12 {
			t.Fatalf("rounds accounted = %d+%d, want 12", res.Kills, res.CleanExits)
		}
		if res.BlackBoxChecks == 0 {
			t.Error("no round cross-checked the flight-recorder black box")
		}
		logResult(t, 12, res)
	})
	t.Run("replicas=3", func(t *testing.T) {
		res := runCampaign(t, 3, 10, 8, 11)
		if res.Kills+res.CleanExits != 10 {
			t.Fatalf("rounds accounted = %d+%d, want 10", res.Kills, res.CleanExits)
		}
		if len(res.Faults) == 0 {
			t.Error("no replica faults were injected")
		}
		logResult(t, 10, res)
	})
}

// TestKillCampaign200Rounds is the acceptance criterion: 200 seeded
// SIGKILL rounds, every incarnation recovering to an NRL-consistent
// state containing every acknowledged append. One store: kills land
// across multiple persistence phases. Three members, each round also
// wiping, corrupting or disk-faulting one member directory: a degraded
// leader always ends in a promoted follower that keeps accepting
// writes, and no round ends sticky read-only while a healthy quorum
// exists.
func TestKillCampaign200Rounds(t *testing.T) {
	if testing.Short() {
		t.Skip("200-round kill campaign skipped in -short mode")
	}
	t.Run("replicas=1", func(t *testing.T) {
		// 40 appends (~80 fences) give the kill points room to sample
		// the whole commit pipeline.
		res := runCampaign(t, 1, killAcceptanceRounds, 40, 1)
		if res.Kills == 0 {
			t.Fatalf("%d rounds produced no kills; campaign exercised nothing", killAcceptanceRounds)
		}
		if d := res.Phases.Distinct(); killAssertPhases && d < 2 {
			t.Errorf("kills covered only %d distinct phase(s); want >= 2\n%s", d, res.Phases)
		}
		logResult(t, killAcceptanceRounds, res)
	})
	t.Run("replicas=3", func(t *testing.T) {
		res := runCampaign(t, 3, killAcceptanceRounds, 20, 1)
		if res.Kills == 0 {
			t.Fatalf("%d rounds produced no kills; campaign exercised nothing", killAcceptanceRounds)
		}
		for _, kind := range []string{"wipe", "corrupt", "disk"} {
			if res.Faults[kind] == 0 {
				t.Errorf("no round drew the %s fault; coverage hole", kind)
			}
		}
		if res.Promotions == 0 {
			t.Error("no incarnation promoted a follower; leader disk faults never ended in failover")
		}
		if res.Heals == 0 {
			t.Error("no incarnation healed a follower back in")
		}
		logResult(t, killAcceptanceRounds, res)
	})
}

// The fake worker's pacing: a start-up far longer than the campaign's
// kill window from exec, then acks far enough apart that the post-ack
// kill window (a few milliseconds) cannot reach the next one.
const (
	fakeStartup = 100 * time.Millisecond
	fakeAckPace = 50 * time.Millisecond
)

// TestFakeKillWorker is not a test: it is the stand-in worker of
// TestKillPointCountsAcks, re-executed as a subprocess. It starts
// slowly, then acknowledges its appends at a fixed pace, keeping its
// log length in a file so each incarnation recovers what the last one
// acknowledged.
func TestFakeKillWorker(t *testing.T) {
	cfg := workerConfig(t)
	vclock.WallSleep(fakeStartup)
	path := filepath.Join(cfg.Root, "len")
	var n uint64
	if b, err := os.ReadFile(path); err == nil {
		n, _ = strconv.ParseUint(string(b), 10, 64)
	}
	fmt.Printf("recovered len=%d ctr=%d torn=0 repaired=0\n", n, n)
	fmt.Println("set leader=0 epoch=0 promos=0 heals=0")
	fmt.Println("blackbox records=0 torn=0 maxbegun=0 maxended=0 inflight=0")
	for i := 0; i < cfg.Appends && !cfg.Verify; i++ {
		vclock.WallSleep(fakeAckPace)
		n++
		if err := os.WriteFile(path, []byte(strconv.FormatUint(n, 10)), 0o644); err != nil {
			fmt.Printf("bad append: %v\n", err)
			os.Exit(chaos.KillWorkerBad)
		}
		fmt.Printf("len %d\n", n)
	}
	fmt.Println("done")
	os.Exit(chaos.KillWorkerOK)
}

// TestKillPointCountsAcks pins where a kill lands: a round whose kill
// point is the k-th ack (k > 0) dies after exactly k acks, however long
// the worker took to start.
func TestKillPointCountsAcks(t *testing.T) {
	res, err := chaos.RunKillCampaign(chaos.KillConfig{
		Rounds:       8,
		Seed:         5,
		MaxKillDelay: fakeStartup / 5,
		Root:         t.TempDir(),
		Appends:      3,
		Worker:       selfWorker(t, "TestFakeKillWorker"),
	})
	if err != nil {
		t.Fatalf("RunKillCampaign: %v", err)
	}
	for _, f := range res.Failures {
		t.Errorf("violation: %s", f)
	}
	checked := 0
	for _, r := range res.Trace.Rounds {
		if !r.Killed || r.KillAfter == 0 {
			continue
		}
		checked++
		if r.Acked != uint64(r.KillAfter) {
			t.Errorf("round %d: killed after %d acks, want the kill point %d", r.Round, r.Acked, r.KillAfter)
		}
	}
	if checked == 0 {
		t.Fatalf("no round was killed at an ack; trace rounds: %+v", res.Trace.Rounds)
	}
}
