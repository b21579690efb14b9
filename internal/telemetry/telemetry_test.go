package telemetry_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nrl/internal/flightrec"
	"nrl/internal/flightrec/forensics"
	"nrl/internal/nvm"
	"nrl/internal/objects"
	"nrl/internal/proc"
	"nrl/internal/telemetry"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestMetricsEndpoint: the flat document is well-formed JSON carrying
// every registered group's keys with live values.
func TestMetricsEndpoint(t *testing.T) {
	mem := nvm.New()
	rec := flightrec.NewRecorder(flightrec.Options{Slots: 64})

	reg := telemetry.NewRegistry()
	reg.Register("nvm", telemetry.Memory(mem))
	reg.Register("flightrec", telemetry.Recorder(rec))

	a := mem.Alloc("x", 0)
	mem.Write(a, 1)
	mem.Read(a)
	mem.Read(a)
	rec.Record(flightrec.Rec{Kind: flightrec.KindBegin, P: 1, Depth: 1, Obj: "o", Op: "Op"})

	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var flat map[string]any
	if err := json.Unmarshal(body, &flat); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if got := flat["nvm.reads"]; got != float64(2) {
		t.Errorf("nvm.reads = %v, want 2", got)
	}
	if got := flat["nvm.writes"]; got != float64(1) {
		t.Errorf("nvm.writes = %v, want 1", got)
	}
	if got := flat["flightrec.seq"]; got != float64(3) { // begin + 2 name records
		t.Errorf("flightrec.seq = %v, want 3", got)
	}
	if got := flat["flightrec.in_flight"]; got != float64(1) {
		t.Errorf("flightrec.in_flight = %v, want 1", got)
	}
	if flat["nvm.mode"] != "ADR" {
		t.Errorf("nvm.mode = %v", flat["nvm.mode"])
	}
}

// TestRecorderMetricsWithoutTracer: with only a flight recorder
// configured, the recorder group's lifecycle keys carry the run's
// operation counts, the same ones forensics reconstructs from the ring.
func TestRecorderMetricsWithoutTracer(t *testing.T) {
	const procs, ops = 2, 40
	rec := flightrec.NewRecorder(flightrec.Options{})
	// One crash in an Enqueue's body and one more in its recovery, so
	// the recovery function is entered once more often than it exits.
	// Only process 1's goroutine touches crashes.
	crashes := 0
	sys := proc.NewSystem(proc.Config{
		Procs:     procs,
		Mem:       nvm.New(nvm.WithMode(nvm.Buffered)),
		FlightRec: rec,
		Injector: proc.Func(func(pt proc.CrashPoint) bool {
			if pt.Proc != 1 || crashes == 2 || pt.Recovery != (crashes == 1) {
				return false
			}
			crashes++
			return true
		}),
	})
	q := objects.NewQueue(sys, "q", procs*ops)
	for p := 1; p <= procs; p++ {
		sys.Go(p, func(c *proc.Ctx) {
			for i := 0; i < ops; i++ {
				q.Enqueue(c, uint64(i))
			}
		})
	}
	sys.Wait()
	rec.RecordCommit(1, 3) // as a durable backend records it: 3 words

	rep := forensics.Reconstruct(rec.Snapshot(), 0)
	want := map[string]uint64{"fences": rep.Fences, "commits": rep.Commits,
		"commit_words": rep.CommitWords, "in_flight": uint64(rep.InFlightTotal())}
	for _, pr := range rep.Procs {
		want["begun"] += pr.Begun
		want["ended"] += pr.Ended
		want["crashes"] += pr.Crashes
		want["recover_enters"] += pr.RecoverEnters
		want["recover_exits"] += pr.RecoverExits
	}
	got := telemetry.Recorder(rec)()
	for k, w := range want {
		if got[k] != w {
			t.Errorf("flightrec.%s = %v, want %d", k, got[k], w)
		}
	}
	// Shallow mode records top-level begin/end only: every Enqueue
	// begins, and the crashed one ends through its recovery function.
	// On Buffered memory every Enqueue fences.
	if want["begun"] != procs*ops || want["ended"] != procs*ops-1 || want["crashes"] != 2 ||
		want["recover_enters"] != want["recover_exits"]+1 || want["fences"] < procs*ops ||
		want["commits"] != 1 || want["commit_words"] != 3 || want["in_flight"] != 0 {
		t.Errorf("recorder counts %v do not match the run", want)
	}
}

// TestHealthEndpoint: ok while checks pass, 503 naming the failure
// after one fails.
func TestHealthEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	bad := false
	reg.RegisterHealth("store", func() error {
		if bad {
			return errors.New("degraded to read-only")
		}
		return nil
	})
	srv := httptest.NewServer(reg.Mux())
	defer srv.Close()

	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthy = %d %s", code, body)
	}
	bad = true
	code, body = get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded status = %d", code)
	}
	var doc struct {
		Status   string            `json:"status"`
		Failures map[string]string `json:"failures"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if doc.Status != "degraded" || !strings.Contains(doc.Failures["store"], "read-only") {
		t.Errorf("degraded doc = %+v", doc)
	}
}

// TestPprofWired: the pprof family is mounted on the plane's own mux.
func TestPprofWired(t *testing.T) {
	srv := httptest.NewServer(telemetry.NewRegistry().Mux())
	defer srv.Close()
	code, body := get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index = %d %.80s", code, body)
	}
}
