// Package telemetry is the live observability plane: a registry of
// lazily-sampled metric groups rendered as one flat expvar-style JSON
// document, served — strictly opt-in — over HTTP together with health
// and pprof endpoints.
//
// Nothing in the simulator imports this package; callers hand it the
// pieces they already hold (an nvm.Memory, a flightrec.Recorder) via
// the adapter constructors and mount the resulting handler wherever
// they like. Sampling happens per request, so an idle endpoint costs
// nothing. Neither sampler needs a tracer: the operation counts come
// from the always-on flight recorder.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"

	"nrl/internal/flightrec"
	"nrl/internal/flightrec/forensics"
	"nrl/internal/nvm"
)

// Sampler produces one metric group's current values. Keys are joined
// with the group name as "<group>.<key>" in the flat document; values
// must be JSON-marshalable (numbers, strings, bools).
type Sampler func() map[string]any

// Registry holds named metric groups and health checks. The zero value
// is not usable; construct with NewRegistry. All methods are safe for
// concurrent use.
type Registry struct {
	mu     sync.RWMutex
	groups map[string]Sampler
	health map[string]func() error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		groups: make(map[string]Sampler),
		health: make(map[string]func() error),
	}
}

// Register installs (or replaces) a metric group. The sampler runs on
// every snapshot; it must be safe to call concurrently with the
// instrumented code.
func (r *Registry) Register(group string, s Sampler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groups[group] = s
}

// RegisterHealth installs a named health check. A check returning an
// error flips /healthz to 503 and names the failing component.
func (r *Registry) RegisterHealth(name string, check func() error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.health[name] = check
}

// Snapshot samples every group and returns the flat document, keys
// sorted for deterministic output.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	samplers := make(map[string]Sampler, len(r.groups))
	for g, s := range r.groups {
		samplers[g] = s
	}
	r.mu.RUnlock()
	flat := make(map[string]any)
	for g, s := range samplers {
		for k, v := range s() {
			flat[g+"."+k] = v
		}
	}
	return flat
}

// MetricsHandler serves the flat snapshot as JSON, one key per line in
// sorted order (expvar-style, but without expvar's process globals).
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		flat := r.Snapshot()
		keys := make([]string, 0, len(flat))
		for k := range flat {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, "{")
		for i, k := range keys {
			kb, _ := json.Marshal(k)
			vb, err := json.Marshal(flat[k])
			if err != nil {
				vb, _ = json.Marshal(fmt.Sprintf("!marshal: %v", err))
			}
			comma := ","
			if i == len(keys)-1 {
				comma = ""
			}
			fmt.Fprintf(w, "  %s: %s%s\n", kb, vb, comma)
		}
		fmt.Fprintln(w, "}")
	})
}

// HealthHandler serves /healthz: 200 {"status":"ok"} while every
// registered check passes, 503 naming each failure otherwise.
func (r *Registry) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		r.mu.RLock()
		checks := make(map[string]func() error, len(r.health))
		for n, c := range r.health {
			checks[n] = c
		}
		r.mu.RUnlock()
		failures := map[string]string{}
		for n, c := range checks {
			if err := c(); err != nil {
				failures[n] = err.Error()
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		if len(failures) == 0 {
			enc.Encode(map[string]any{"status": "ok"})
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		enc.Encode(map[string]any{"status": "degraded", "failures": failures})
	})
}

// Mux assembles the full opt-in plane on a fresh ServeMux: /metrics,
// /healthz, and the pprof family wired explicitly under /debug/pprof/
// (this package never touches http.DefaultServeMux).
func (r *Registry) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.MetricsHandler())
	mux.Handle("/healthz", r.HealthHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Memory adapts an nvm.Memory's counters into a metric group.
func Memory(m *nvm.Memory) Sampler {
	return func() map[string]any {
		s := m.Stats()
		return map[string]any{
			"reads":            s.Reads,
			"writes":           s.Writes,
			"cases":            s.CASes,
			"tases":            s.TASes,
			"faas":             s.FAAs,
			"flushes":          s.Flushes,
			"fences":           s.Fences,
			"fence_words":      s.FenceWords,
			"system_crashes":   s.SystemCrashes,
			"shard_contention": s.ShardContention,
			"ops_total":        s.Total(),
			"mode":             m.Mode().String(),
			"size_words":       m.Size(),
		}
	}
}

// Recorder adapts a flight recorder into a metric group: its ring
// counters, plus the lifecycle counts of the records in its current
// window (dropped says how many older records the ring has overwritten).
// The window is decoded per sample; rings are small by construction.
func Recorder(rec *flightrec.Recorder) Sampler {
	return func() map[string]any {
		rep := forensics.Reconstruct(rec.Snapshot(), 0)
		var begun, ended, crashes, enters, exits uint64
		for _, pr := range rep.Procs {
			begun += pr.Begun
			ended += pr.Ended
			crashes += pr.Crashes
			enters += pr.RecoverEnters
			exits += pr.RecoverExits
		}
		return map[string]any{
			"seq":            rec.Seq(),
			"slots":          rec.Slots(),
			"dropped":        rec.Dropped(),
			"deep":           rec.DeepMode(),
			"begun":          begun,
			"ended":          ended,
			"crashes":        crashes,
			"recover_enters": enters,
			"recover_exits":  exits,
			"fences":         rep.Fences,
			"commits":        rep.Commits,
			"commit_words":   rep.CommitWords,
			"in_flight":      uint64(rep.InFlightTotal()),
		}
	}
}
