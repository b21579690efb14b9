// schedtrace.go glues the campaign engines to the schedule-trace format
// of internal/chaos/trace: building traces from failures, re-executing
// recorded traces, and reporting the first divergence when the code's
// behavior has drifted since the recording.
package chaos

import (
	"fmt"
	"os/exec"
	"time"

	schedtrace "nrl/internal/chaos/trace"
	"nrl/internal/harness"
)

// ConfigFromTrace reconstructs the campaign Config a KindCampaign trace
// was recorded under. The header carries the full configuration, so the
// reconstruction is exact (the Worker-less simulated campaign needs
// nothing beyond it).
func ConfigFromTrace(rec *schedtrace.Trace) (Config, error) {
	if rec.Header.Kind != schedtrace.KindCampaign {
		return Config{}, fmt.Errorf("chaos: trace kind %q, want %q", rec.Header.Kind, schedtrace.KindCampaign)
	}
	w, ok := harness.WorkloadByName(rec.Header.Workload)
	if !ok {
		return Config{}, fmt.Errorf("chaos: trace names unknown workload %q", rec.Header.Workload)
	}
	return Config{
		Workload:   w,
		Procs:      rec.Header.Procs,
		Ops:        rec.Header.Ops,
		Runs:       rec.Header.Runs,
		Seed:       rec.Header.Seed,
		Rate:       rec.Header.Rate,
		Boost:      rec.Header.Boost,
		MaxCrashes: rec.Header.MaxCrashes,
		Target:     rec.Header.Target,
	}, nil
}

// RegressionTrace packages one campaign failure as a minimized
// single-round reproducer (KindRegression) — the format of the
// committed corpus under internal/chaos/testdata/regressions. The
// recorded placement is the shrunk one; note is free-form provenance.
func RegressionTrace(w harness.Workload, procs, ops int, f *Failure, note string) *schedtrace.Trace {
	procs = w.Procs(procs)
	return &schedtrace.Trace{
		Header: schedtrace.Header{
			Kind: schedtrace.KindRegression, Workload: w.Name,
			Procs: procs, Ops: ops, Seed: f.RunSeed, Note: note,
		},
		Rounds: []schedtrace.Round{{
			Round: 0, Seed: f.RunSeed,
			Sites: FormatSites(f.Shrunk), Crashes: len(f.Shrunk),
			Violation: f.Err.Error(),
		}},
	}
}

// ReplayTrace re-executes the simulated campaign a recorded trace
// describes and returns the fresh trace plus the first divergence (nil:
// the replay reproduced the recording exactly). Only the simulated
// kinds replay here; the SIGKILL kind needs a live worker harness
// (ReplayKillTrace).
func ReplayTrace(rec *schedtrace.Trace) (*schedtrace.Trace, *schedtrace.Divergence, error) {
	switch rec.Header.Kind {
	case schedtrace.KindCampaign:
		cfg, err := ConfigFromTrace(rec)
		if err != nil {
			return nil, nil, err
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		return res.Trace, schedtrace.Diff(rec, res.Trace), nil
	case schedtrace.KindRegression:
		return replayRegression(rec)
	default:
		return nil, nil, fmt.Errorf("chaos: trace kind %q needs a live worker harness to replay", rec.Header.Kind)
	}
}

// replayRegression re-runs a minimized (seed, sites) reproducer and
// diffs its verdict against the recorded one.
func replayRegression(rec *schedtrace.Trace) (*schedtrace.Trace, *schedtrace.Divergence, error) {
	if len(rec.Rounds) != 1 {
		return nil, nil, fmt.Errorf("chaos: regression trace has %d rounds, want 1", len(rec.Rounds))
	}
	w, ok := harness.WorkloadByName(rec.Header.Workload)
	if !ok {
		return nil, nil, fmt.Errorf("chaos: trace names unknown workload %q", rec.Header.Workload)
	}
	r := rec.Rounds[0]
	sites, err := ParseSites(r.Sites)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: regression trace sites: %w", err)
	}
	procs := w.Procs(rec.Header.Procs)
	_, verdict := Replay(w, procs, rec.Header.Ops, r.Seed, sites, 0, 0)
	got := &schedtrace.Trace{
		Header: schedtrace.Header{
			Kind: schedtrace.KindRegression, Workload: w.Name,
			Procs: procs, Ops: rec.Header.Ops, Seed: rec.Header.Seed,
		},
		Rounds: []schedtrace.Round{{
			Round: 0, Seed: r.Seed,
			Sites: FormatSites(sites), Crashes: len(sites),
		}},
	}
	if verdict != nil {
		got.Rounds[0].Violation = verdict.Error()
	}
	return got, schedtrace.Diff(rec, got), nil
}

// ReplayKillTrace re-runs the SIGKILL campaign a KindKill trace
// records — same rounds, seed, kill window, member count and worker
// shape — over a fresh root, against the supplied worker builder, and
// diffs the fresh schedule against the recorded one (observed outcomes
// do not gate; see the trace package doc).
func ReplayKillTrace(rec *schedtrace.Trace, root string, worker func(KillWorkerConfig) *exec.Cmd) (*KillResult, *schedtrace.Divergence, error) {
	if rec.Header.Kind != schedtrace.KindKill {
		return nil, nil, fmt.Errorf("chaos: trace kind %q, want %q", rec.Header.Kind, schedtrace.KindKill)
	}
	res, err := RunKillCampaign(KillConfig{
		Rounds:       rec.Header.Rounds,
		Seed:         rec.Header.Seed,
		MaxKillDelay: time.Duration(rec.Header.MaxDelayUS) * time.Microsecond,
		Root:         root,
		Replicas:     rec.Header.Replicas,
		Appends:      rec.Header.Appends,
		Capacity:     rec.Header.Capacity,
		Worker:       worker,
	})
	if err != nil {
		return res, nil, err
	}
	return res, schedtrace.Diff(rec, res.Trace), nil
}
