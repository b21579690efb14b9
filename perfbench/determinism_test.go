package main

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"nrl/internal/proc"
)

func scriptBytes(seed int64) []byte {
	var buf bytes.Buffer
	w := workloads["mem-mix"]
	for p := 1; p <= 2; p++ {
		for _, o := range genScript(&w.mix, seed, 0, p, 5000) {
			buf.WriteByte(byte(o.kind))
			binary.Write(&buf, binary.LittleEndian, o.arg)
		}
	}
	return buf.Bytes()
}

// crashBytes offers the same step sequence to a fresh injector of each
// process and records every decision.
func crashBytes(seed int64) []byte {
	ci := newCrashInjector(seed, 0, 2, 0.01)
	var buf bytes.Buffer
	for i := 0; i < 20000; i++ {
		for p := 1; p <= 2; p++ {
			if ci.ShouldCrash(proc.CrashPoint{Proc: p}) {
				buf.WriteByte(1)
			} else {
				buf.WriteByte(0)
			}
		}
	}
	return buf.Bytes()
}

func TestScriptsAndCrashStreamsDeterministic(t *testing.T) {
	for what, gen := range map[string]func(int64) []byte{"op script": scriptBytes, "crash stream": crashBytes} {
		a, b, c := gen(42), gen(42), gen(43)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different bytes", what)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same bytes", what)
		}
	}
}

func TestCrashStreamRate(t *testing.T) {
	const rate, n = 0.01, 200000
	ci := newCrashInjector(5, 0, 1, rate)
	crashes := 0
	for i := 0; i < n; i++ {
		if ci.ShouldCrash(proc.CrashPoint{Proc: 1}) {
			crashes++
		}
	}
	if got := float64(crashes) / n; got < rate*0.9 || got > rate*1.1 {
		t.Fatalf("crash rate %.4f, want about %.4f", got, rate)
	}
}

// oneProc runs a short traced single-process variant of a workload: one
// untraced and one traced round of fixed length, no time limit.
func oneProc(t *testing.T, name string, scriptLen int) *result {
	t.Helper()
	res, err := run(config{
		workload: workloads[name], seed: 9, rounds: 2, procs: 1,
		scriptLen: scriptLen, trace: true, root: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("audit failed: %d of %d ops: %v", res.failed, res.attempted, res.findings.first)
	}
	return res
}

// TestSingleProcessCountsRepeat pins the per-op counts of a 1-process
// run: with nothing to race, they are exact counts that repeat, so they
// can be cited as counts rather than timings.
func TestSingleProcessCountsRepeat(t *testing.T) {
	for name, n := range map[string]int{"mem-mix": 3000, "durable-queue": 150} {
		a, b := oneProc(t, name, n), oneProc(t, name, n)
		for _, m := range a.layers {
			if !strings.HasPrefix(m.name, "nvm.") && m.name != "persist.commits_per_op" && m.name != "proc.steps_per_op" {
				continue
			}
			mb, _ := b.lookup(m.name)
			if m.Value != mb.Value {
				t.Errorf("%s %s: %v then %v", name, m.name, m.Value, mb.Value)
			}
		}
		if v, _ := a.lookup("nvm.reads_per_op"); v.Value == 0 {
			t.Errorf("%s: nvm.reads_per_op is 0", name)
		}
		if v, _ := a.lookup("persist.commits_per_op"); name == "durable-queue" && v.Value == 0 {
			t.Errorf("%s: persist.commits_per_op is 0", name)
		}
	}
}
