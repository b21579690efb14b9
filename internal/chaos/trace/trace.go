// Package trace records and replays campaign schedule traces: the
// compact, checksummed JSONL files that turn a chaos-found failure
// into a committed regression (DESIGN.md §11).
//
// A trace is one header line, one line per campaign round, and a
// footer carrying a CRC-32C over every preceding byte. The header
// names the campaign kind and its full configuration (workload, procs,
// ops, seed, replica count); each round line records what the seeded
// schedule chose (derived run seed, fired crash sites, fault kind and
// target, kill delay, virtual-time advance) and what the run concluded
// (verdict, stuck, partial — or, for the real-kill kind, the observed
// kill phase and recovery report).
//
// Replay reads a trace, re-executes the campaign it describes, and
// diffs the fresh trace against the recorded one with Diff, which
// returns the first divergent (round, field, want, got) — the
// structured "the code's behavior has drifted" verdict. Which fields
// Diff compares depends on the kind: simulated campaigns are
// deterministic end-to-end, so every field must match; the SIGKILL
// kind re-derives its schedule choices from the seed (those must
// match) but observes real process timing (kill phase, recovered
// length), which replays report but do not gate on.
package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Version identifies the trace schema; Decode rejects others.
const Version = "nrl-schedtrace/1"

// Trace kinds: which campaign produced the rounds, and therefore which
// round fields are deterministic under replay.
const (
	// KindCampaign is a simulated chaos.Run campaign — fully
	// deterministic, every round field gates the replay.
	KindCampaign = "campaign"
	// KindRegression is a minimized single-run reproducer (the shrunk
	// crash placement of one failure), the format of the committed
	// corpus under internal/chaos/testdata/regressions.
	KindRegression = "regression"
	// KindKill is a real SIGKILL campaign over a store or a replica
	// set (Header.Replicas members): the worker seed, replica fault,
	// kill point and kill delay are deterministic; the kill outcomes
	// are observed.
	KindKill = "kill"
)

// Header is the first trace line: the campaign's identity and full
// configuration, enough to re-execute it from scratch.
type Header struct {
	Version string `json:"v"`
	Kind    string `json:"kind"`
	// Seed is the campaign master seed every schedule stream splits
	// from.
	Seed int64 `json:"seed"`
	// Workload/Procs/Ops/Runs shape simulated campaigns;
	// Rate/Boost/MaxCrashes/Target are their guided-injector tuning
	// (recorded because the schedule is a function of them too).
	Workload   string  `json:"workload,omitempty"`
	Procs      int     `json:"procs,omitempty"`
	Ops        int     `json:"ops,omitempty"`
	Runs       int     `json:"runs,omitempty"`
	Rate       float64 `json:"rate,omitempty"`
	Boost      float64 `json:"boost,omitempty"`
	MaxCrashes int     `json:"max_crashes,omitempty"`
	Target     string  `json:"target,omitempty"`
	// Rounds/Appends/Capacity/Replicas/MaxDelayUS shape the kill kind.
	Rounds     int   `json:"rounds,omitempty"`
	Appends    int   `json:"appends,omitempty"`
	Capacity   int   `json:"capacity,omitempty"`
	Replicas   int   `json:"replicas,omitempty"`
	MaxDelayUS int64 `json:"max_delay_us,omitempty"`
	// Note is free-form provenance ("found by nrlchaos -runs 500 …").
	Note string `json:"note,omitempty"`
}

// Round is one campaign round's schedule choices and outcome. Fields
// are grouped by replay semantics; zero values are omitted so a trace
// line carries only what its kind populates.
type Round struct {
	Round int `json:"round"`
	// Seed is the round's derived seed: the run seed of a simulated
	// campaign, the worker jitter seed of a kill round.
	Seed int64 `json:"seed,omitempty"`

	// Schedule choices — deterministic for every kind.
	//
	// Sites is the fired crash placement (FormatSites form); Crashes
	// its count. Fault/FaultDir/FaultAfter/FaultFor are the replica
	// injury and its arming window. KillAfter is the kill point: the
	// kill lands DelayUS after the worker's KillAfter-th acknowledged
	// append, or DelayUS after exec when KillAfter is 0.
	Sites      string `json:"sites,omitempty"`
	Crashes    int    `json:"crashes,omitempty"`
	Fault      string `json:"fault,omitempty"`
	FaultDir   int    `json:"fault_dir,omitempty"`
	FaultAfter int    `json:"fault_after,omitempty"`
	FaultFor   int    `json:"fault_for,omitempty"`
	KillAfter  int    `json:"kill_after,omitempty"`
	DelayUS    int64  `json:"delay_us,omitempty"`
	// VTimeUS is the round's virtual-time advance (vclock sleeps plus
	// the scheduled delay), deterministic alongside the choices above.
	VTimeUS int64 `json:"vtime_us,omitempty"`

	// Simulated-campaign verdicts — deterministic for KindCampaign and
	// KindRegression, absent for the kill kind.
	Stuck     bool   `json:"stuck,omitempty"`
	Partial   bool   `json:"partial,omitempty"`
	Violation string `json:"violation,omitempty"`

	// Observed outcomes — real process timing; recorded for forensics,
	// never gated on by Diff. Recovered is the log length the worker
	// recovered; Acked how many appends it acknowledged after that.
	Killed    bool   `json:"killed,omitempty"`
	Phase     string `json:"phase,omitempty"`
	Exit      int    `json:"exit,omitempty"`
	Recovered uint64 `json:"recovered,omitempty"`
	Acked     uint64 `json:"acked,omitempty"`
}

// footer is the last trace line: the round count and the CRC-32C
// (Castagnoli) of every byte before it.
type footer struct {
	Rounds int    `json:"rounds"`
	Sum    string `json:"sum"`
}

// Trace is a decoded schedule trace.
type Trace struct {
	Header Header
	Rounds []Round
}

// ErrCorrupt reports a trace file that failed structural or checksum
// validation; the wrapped detail says which.
var ErrCorrupt = errors.New("schedule trace corrupt")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode renders the trace as checksummed JSONL. Encoding is
// deterministic (fixed field order, no map iteration), so two
// identical campaigns encode byte-identically — the property the
// double-run determinism test pins.
func (t *Trace) Encode() ([]byte, error) {
	var buf bytes.Buffer
	h := t.Header
	h.Version = Version
	if err := writeLine(&buf, h); err != nil {
		return nil, err
	}
	for _, r := range t.Rounds {
		if err := writeLine(&buf, r); err != nil {
			return nil, err
		}
	}
	sum := crc32.Checksum(buf.Bytes(), castagnoli)
	if err := writeLine(&buf, footer{Rounds: len(t.Rounds), Sum: fmt.Sprintf("crc32c:%08x", sum)}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeLine(buf *bytes.Buffer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf.Write(b)
	buf.WriteByte('\n')
	return nil
}

// WriteFile encodes the trace into path (0644, truncating).
func (t *Trace) WriteFile(path string) error {
	b, err := t.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Decode parses a checksummed JSONL trace, validating the version, the
// footer checksum and the round count. Damage yields ErrCorrupt.
func Decode(data []byte) (*Trace, error) {
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%w: %d lines, want header + footer at least", ErrCorrupt, len(lines))
	}
	var ft footer
	ftLine := lines[len(lines)-1]
	if err := json.Unmarshal(ftLine, &ft); err != nil || ft.Sum == "" {
		return nil, fmt.Errorf("%w: unparseable footer", ErrCorrupt)
	}
	body := data[:bytes.LastIndex(data, ftLine)]
	if got := fmt.Sprintf("crc32c:%08x", crc32.Checksum(body, castagnoli)); got != ft.Sum {
		return nil, fmt.Errorf("%w: checksum %s, footer says %s", ErrCorrupt, got, ft.Sum)
	}
	t := &Trace{}
	if err := json.Unmarshal(lines[0], &t.Header); err != nil {
		return nil, fmt.Errorf("%w: bad header: %v", ErrCorrupt, err)
	}
	if t.Header.Version != Version {
		return nil, fmt.Errorf("%w: version %q, want %q", ErrCorrupt, t.Header.Version, Version)
	}
	for i, ln := range lines[1 : len(lines)-1] {
		var r Round
		if err := json.Unmarshal(ln, &r); err != nil {
			return nil, fmt.Errorf("%w: bad round line %d: %v", ErrCorrupt, i, err)
		}
		t.Rounds = append(t.Rounds, r)
	}
	if len(t.Rounds) != ft.Rounds {
		return nil, fmt.Errorf("%w: %d round lines, footer says %d", ErrCorrupt, len(t.Rounds), ft.Rounds)
	}
	return t, nil
}

// ReadFile reads and decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Divergence is Diff's verdict: the first field whose replayed value
// departs from the recorded one. Round is -1 for header-level
// divergence (the replay was configured differently — not drift, a
// usage error).
type Divergence struct {
	Round int
	Field string
	Want  string
	Got   string
}

// Error renders the divergence in the structured round/field/want/got
// form the CLIs print and the drift tests grep.
func (d *Divergence) Error() string {
	if d.Round < 0 {
		return fmt.Sprintf("trace header diverged: %s: recorded %s, replay %s", d.Field, d.Want, d.Got)
	}
	return fmt.Sprintf("trace diverged at round %d: %s: recorded %s, replay %s", d.Round, d.Field, d.Want, d.Got)
}

// field is one gated comparison of a round.
type field struct {
	name string
	get  func(*Round) string
}

func str(v any) string { return fmt.Sprintf("%v", v) }

// scheduleFields are deterministic for every kind: they are pure
// functions of the campaign seed.
var scheduleFields = []field{
	{"seed", func(r *Round) string { return str(r.Seed) }},
	{"sites", func(r *Round) string { return r.Sites }},
	{"crashes", func(r *Round) string { return str(r.Crashes) }},
	{"fault", func(r *Round) string { return r.Fault }},
	{"fault_dir", func(r *Round) string { return str(r.FaultDir) }},
	{"fault_after", func(r *Round) string { return str(r.FaultAfter) }},
	{"fault_for", func(r *Round) string { return str(r.FaultFor) }},
	{"kill_after", func(r *Round) string { return str(r.KillAfter) }},
	{"delay_us", func(r *Round) string { return str(r.DelayUS) }},
}

// verdictFields are deterministic only when the whole execution is
// simulated (KindCampaign, KindRegression).
var verdictFields = []field{
	{"stuck", func(r *Round) string { return str(r.Stuck) }},
	{"partial", func(r *Round) string { return str(r.Partial) }},
	{"violation", func(r *Round) string { return r.Violation }},
	{"vtime_us", func(r *Round) string { return str(r.VTimeUS) }},
}

// Deterministic reports whether kind's verdict fields replay exactly
// (true for the simulated kinds, false for the SIGKILL kind, whose
// outcomes ride real process timing).
func Deterministic(kind string) bool {
	return kind == KindCampaign || kind == KindRegression
}

// Diff compares a replayed trace against the recorded one and returns
// the first divergence in round order (schedule fields first within a
// round), or nil when the replay matches. Headers gate first: a
// mismatched configuration is reported as Round -1.
func Diff(want, got *Trace) *Divergence {
	type hf struct{ name, w, g string }
	hw, hg := want.Header, got.Header
	for _, f := range []hf{
		{"kind", hw.Kind, hg.Kind},
		{"workload", hw.Workload, hg.Workload},
		{"seed", str(hw.Seed), str(hg.Seed)},
		{"procs", str(hw.Procs), str(hg.Procs)},
		{"ops", str(hw.Ops), str(hg.Ops)},
		{"runs", str(hw.Runs), str(hg.Runs)},
		{"rate", str(hw.Rate), str(hg.Rate)},
		{"boost", str(hw.Boost), str(hg.Boost)},
		{"max_crashes", str(hw.MaxCrashes), str(hg.MaxCrashes)},
		{"target", hw.Target, hg.Target},
		{"rounds", str(hw.Rounds), str(hg.Rounds)},
		{"appends", str(hw.Appends), str(hg.Appends)},
		{"replicas", str(hw.Replicas), str(hg.Replicas)},
	} {
		if f.w != f.g {
			return &Divergence{Round: -1, Field: f.name, Want: f.w, Got: f.g}
		}
	}
	fields := scheduleFields
	if Deterministic(want.Header.Kind) {
		fields = append(append([]field{}, scheduleFields...), verdictFields...)
	}
	n := len(want.Rounds)
	if len(got.Rounds) < n {
		n = len(got.Rounds)
	}
	for i := 0; i < n; i++ {
		w, g := want.Rounds[i], got.Rounds[i]
		for _, f := range fields {
			if fw, fg := f.get(&w), f.get(&g); fw != fg {
				return &Divergence{Round: w.Round, Field: f.name, Want: fw, Got: fg}
			}
		}
	}
	if len(want.Rounds) != len(got.Rounds) {
		return &Divergence{Round: n, Field: "round_count",
			Want: str(len(want.Rounds)), Got: str(len(got.Rounds))}
	}
	return nil
}
