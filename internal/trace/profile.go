package trace

import (
	"math/bits"
	"sort"
)

// MemCounts breaks the nvm.Stats counters down per attribution key: how
// many of each NVRAM primitive were issued on behalf of one object or one
// process.
type MemCounts struct {
	Reads   uint64
	Writes  uint64
	CASes   uint64
	TASes   uint64
	FAAs    uint64
	Flushes uint64
	Fences  uint64
}

// Ops returns the number of memory primitives excluding flushes and
// fences (mirroring nvm.StatsSnapshot.Total).
func (m MemCounts) Ops() uint64 {
	return m.Reads + m.Writes + m.CASes + m.TASes + m.FAAs
}

func (m *MemCounts) add(k Kind) {
	switch k {
	case MemRead:
		m.Reads++
	case MemWrite:
		m.Writes++
	case MemCAS:
		m.CASes++
	case MemTAS:
		m.TASes++
	case MemFAA:
		m.FAAs++
	case MemFlush:
		m.Flushes++
	case MemFence:
		m.Fences++
	}
}

// Hist is a power-of-two-bucketed histogram of uint64 samples. Bucket i
// holds samples v with bits.Len64(v) == i, i.e. [0], [1], [2,3], [4,7],
// ...; the last bucket absorbs overflow.
type Hist struct {
	Buckets [32]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Add records one sample.
func (h *Hist) Add(v uint64) {
	i := bits.Len64(v)
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the arithmetic mean of the samples (0 if none).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// largest value representable in the first bucket whose cumulative count
// reaches q. The result is exact for samples 0 and 1 and within 2x above.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			hi := uint64(1)<<uint(i) - 1 // largest v with bits.Len64(v) == i
			if hi > h.Max {
				hi = h.Max
			}
			return hi
		}
	}
	return h.Max
}

// ObjProfile aggregates the events attributed to one root object.
type ObjProfile struct {
	Obj string
	// Invokes counts operation starts (all nesting levels, folded to this
	// root); Completes counts responses, through either path.
	Invokes   uint64
	Completes uint64
	// Crashes and Recoveries count crash events attributed to the object
	// and recovery-function entries on it.
	Crashes    uint64
	Recoveries uint64
	// RecoveredOps counts operations that completed through recovery.
	RecoveredOps uint64
	// Mem breaks down the NVRAM primitives issued by operations on the
	// object. Fences are attributed by the flush-set heuristic described
	// at Build.
	Mem MemCounts
	// Latency is the distribution of global-step spans from top-level
	// invoke to completion.
	Latency Hist
	// ReExecs is the distribution of recovery attempts per completed
	// operation (0 = completed without crashing).
	ReExecs Hist
	// RecoveryDepth counts crashes by the nesting depth at which they
	// struck (depth 1 = a top-level operation's own frame).
	RecoveryDepth map[int]uint64
	// MaxDepth is the deepest nesting observed on the object.
	MaxDepth int
}

// ProcProfile aggregates the events attributed to one process.
type ProcProfile struct {
	P          int
	Invokes    uint64
	Completes  uint64
	Crashes    uint64
	Recoveries uint64
	Mem        MemCounts
	Latency    Hist
	MaxDepth   int
}

// Profile is the aggregate view of a trace: per-object and per-process
// breakdowns plus system-wide recovery-depth counts. Build one with Build.
type Profile struct {
	PerObject map[string]*ObjProfile
	PerProc   map[int]*ProcProfile
	// RecoveryDepth counts all crashes by nesting depth at the crash.
	RecoveryDepth map[int]uint64
	// Events is the number of events aggregated; Fences the system-wide
	// fence count (fences order all objects' flushes at once).
	Events uint64
	Fences uint64
}

// Objects returns the object profiles sorted by name.
func (p *Profile) Objects() []*ObjProfile {
	out := make([]*ObjProfile, 0, len(p.PerObject))
	for _, o := range p.PerObject {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj < out[j].Obj })
	return out
}

// Procs returns the process profiles sorted by id.
func (p *Profile) Procs() []*ProcProfile {
	out := make([]*ProcProfile, 0, len(p.PerProc))
	for _, pr := range p.PerProc {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P < out[j].P })
	return out
}

// Depths returns the sorted crash depths present in RecoveryDepth.
func (p *Profile) Depths() []int {
	out := make([]int, 0, len(p.RecoveryDepth))
	for d := range p.RecoveryDepth {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

func (p *Profile) obj(name string) *ObjProfile {
	if name == "" {
		name = "(unattributed)"
	}
	o, ok := p.PerObject[name]
	if !ok {
		o = &ObjProfile{Obj: name, RecoveryDepth: map[int]uint64{}}
		p.PerObject[name] = o
	}
	return o
}

func (p *Profile) proc(id int) *ProcProfile {
	pr, ok := p.PerProc[id]
	if !ok {
		pr = &ProcProfile{P: id}
		p.PerProc[id] = pr
	}
	return pr
}

// Build aggregates an event stream (in emission order) into a Profile.
//
// Latency pairing uses a per-process frame stack rebuilt from Invoke /
// Response / RecoverDone events, so a truncated stream (a Ring that
// dropped its prefix) yields latencies only for operations whose invoke
// survived the window.
//
// Fence attribution: a fence makes every previously flushed word durable,
// so each MemFence is counted once globally (Profile.Fences) and once for
// every root object flushed since the previous fence — the objects whose
// persistence the fence completed. Unattributed flushes are folded to the
// root of the flushed word's allocation name.
func Build(events []Event) *Profile {
	p := &Profile{
		PerObject:     map[string]*ObjProfile{},
		PerProc:       map[int]*ProcProfile{},
		RecoveryDepth: map[int]uint64{},
	}
	type open struct {
		obj   string
		gstep uint64
	}
	stacks := map[int][]open{}
	flushed := map[string]bool{} // roots flushed since the last fence
	for _, e := range events {
		p.Events++
		root := Root(e.Obj)
		switch e.Kind {
		case Invoke:
			o := p.obj(root)
			o.Invokes++
			if e.Depth > o.MaxDepth {
				o.MaxDepth = e.Depth
			}
			pr := p.proc(e.P)
			pr.Invokes++
			if e.Depth > pr.MaxDepth {
				pr.MaxDepth = e.Depth
			}
			stacks[e.P] = append(stacks[e.P], open{obj: root, gstep: e.GStep})
		case Response, RecoverDone:
			o := p.obj(root)
			o.Completes++
			o.ReExecs.Add(uint64(e.Attempt))
			if e.Kind == RecoverDone {
				o.RecoveredOps++
			}
			pr := p.proc(e.P)
			pr.Completes++
			if st := stacks[e.P]; len(st) > 0 {
				fr := st[len(st)-1]
				stacks[e.P] = st[:len(st)-1]
				if e.Depth == 1 && e.GStep >= fr.gstep {
					lat := e.GStep - fr.gstep
					p.obj(fr.obj).Latency.Add(lat)
					pr.Latency.Add(lat)
				}
			}
		case Crash:
			p.obj(root).Crashes++
			p.obj(root).RecoveryDepth[e.Depth]++
			p.proc(e.P).Crashes++
			p.RecoveryDepth[e.Depth]++
		case Recover:
			p.obj(root).Recoveries++
			p.proc(e.P).Recoveries++
		case MemFlush:
			key := root
			if key == "" {
				key = Root(e.Name)
			}
			p.obj(key).Mem.add(MemFlush)
			if e.P > 0 {
				p.proc(e.P).Mem.add(MemFlush)
			}
			flushed[key] = true
		case MemFence:
			p.Fences++
			for key := range flushed {
				p.obj(key).Mem.add(MemFence)
				delete(flushed, key)
			}
			if e.P > 0 {
				p.proc(e.P).Mem.add(MemFence)
			}
		case MemRead, MemWrite, MemCAS, MemTAS, MemFAA:
			p.obj(root).Mem.add(e.Kind)
			if e.P > 0 {
				p.proc(e.P).Mem.add(e.Kind)
			}
		}
	}
	return p
}
