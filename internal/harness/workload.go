package harness

import (
	"fmt"
	"sort"
	"strings"

	"nrl/internal/core"
	"nrl/internal/linearize"
	"nrl/internal/objects"
	"nrl/internal/proc"
	"nrl/internal/rme"
	"nrl/internal/spec"
	"nrl/internal/universal"
	"nrl/internal/valency"
)

// Workload is one named checkable workload: it builds an object under
// test inside a fresh system, hands every process a body, and wires the
// models the NRL checker needs. The same registry backs every front end
// that drives the proc model — cmd/nrlcheck, cmd/nrlsweep, the chaos
// campaigns of cmd/nrlchaos, cmd/nrlexplore and cmd/nrlstat — so a
// workload name means the same thing everywhere.
type Workload struct {
	Name string
	// FixedProcs pins the process count (0 = caller's choice). The broken
	// strawman is only sequentially sound and must run single-process.
	FixedProcs int
	// Broken marks deliberately incorrect strawmen (negative controls for
	// the checker and the campaigns); "all"-style iteration skips them.
	Broken bool
	// Models resolves sequential specifications for the checker.
	Models linearize.ModelFor
	// Build creates the object in sys and returns per-process bodies.
	Build func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx)
}

// Procs clamps the requested process count to the workload's constraint.
func (w Workload) Procs(requested int) int {
	if w.FixedProcs > 0 {
		return w.FixedProcs
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// WorkloadByName looks a workload up by name.
func WorkloadByName(name string) (Workload, bool) {
	w, ok := workloads[name]
	return w, ok
}

// WorkloadNames returns all workload names, real objects first, then the
// broken strawmen, alphabetically within each group.
func WorkloadNames() []string {
	var real, broken []string
	for n, w := range workloads {
		if w.Broken {
			broken = append(broken, n)
		} else {
			real = append(real, n)
		}
	}
	sort.Strings(real)
	sort.Strings(broken)
	return append(real, broken...)
}

// WorkloadUsage renders the registry for flag usage strings.
func WorkloadUsage() string {
	return strings.Join(WorkloadNames(), ", ") + " or all (every non-broken workload)"
}

// Select resolves a NAME|all workload flag: one named workload, or
// every non-broken one for "all".
func Select(name string) ([]Workload, error) {
	if name == "all" {
		return RealWorkloads(), nil
	}
	w, ok := WorkloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", name, WorkloadUsage())
	}
	return []Workload{w}, nil
}

// RealWorkloads returns the non-broken workloads in name order ("all").
func RealWorkloads() []Workload {
	var out []Workload
	for _, n := range WorkloadNames() {
		if w := workloads[n]; !w.Broken {
			out = append(out, w)
		}
	}
	return out
}

// uniform gives the same body to all procs.
func uniform(procs int, body func(*proc.Ctx)) map[int]func(*proc.Ctx) {
	m := make(map[int]func(*proc.Ctx), procs)
	for p := 1; p <= procs; p++ {
		m[p] = body
	}
	return m
}

func explicit(m map[string]spec.Model) linearize.ModelFor {
	return linearize.ConventionModels(m)
}

// cells sizes an arena-backed object (stack, queue, universal log) for
// procs × ops loop iterations. Stack and queue take a cell per push or
// enqueue, at most one an iteration; the universal constructions log
// every operation, 1.5 an iteration. A crash can also leak the cell of
// the operation it interrupts, whose recovery takes a fresh one, so
// twice the iterations plus a fixed margin covers both.
func cells(procs, ops int) int { return 2*procs*ops + 64 }

var workloads = map[string]Workload{
	"counter": {
		Name:   "counter",
		Models: explicit(map[string]spec.Model{"ctr": spec.Counter{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			ctr := objects.NewCounter(sys, "ctr")
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					ctr.Inc(c)
					if i%2 == 1 {
						ctr.Read(c)
					}
				}
			})
		},
	},
	"register": {
		Name:   "register",
		Models: explicit(map[string]spec.Model{"reg": spec.Register{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			r := core.NewRegister(sys, "reg", 0)
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					if i%3 == 2 {
						r.Read(c)
					} else {
						r.Write(c, core.Distinct(c.P(), uint32(i+1), uint32(i)))
					}
				}
			})
		},
	},
	"cas": {
		Name:   "cas",
		Models: explicit(map[string]spec.Model{"cas": spec.CAS{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			o := core.NewCASObject(sys, "cas")
			return uniform(procs, func(c *proc.Ctx) {
				var cur uint64 // the first CAS is from the initial 0, unread
				for i := 0; i < ops; i++ {
					if i > 0 {
						cur = o.Read(c)
					}
					o.CAS(c, cur, core.DistinctCAS(c.P(), uint32(i%core.MaxCASSeq)+1, uint32(i)))
				}
			})
		},
	},
	"tas": {
		Name:   "tas",
		Models: explicit(map[string]spec.Model{"tas": spec.TAS{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			o := core.NewTAS(sys, "tas")
			return uniform(procs, func(c *proc.Ctx) { o.TestAndSet(c) })
		},
	},
	"faa": {
		Name:   "faa",
		Models: explicit(map[string]spec.Model{"faa": spec.FAA{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			f := objects.NewFAA(sys, "faa")
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					f.Add(c, uint64(c.P()))
				}
			})
		},
	},
	"maxreg": {
		Name:   "maxreg",
		Models: explicit(map[string]spec.Model{"maxreg": spec.MaxRegister{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			m := objects.NewMaxRegister(sys, "maxreg")
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					m.WriteMax(c, uint64(c.P()*100+i))
					if i%2 == 1 {
						m.ReadMax(c)
					}
				}
			})
		},
	},
	"mixed": {
		Name: "mixed",
		Models: explicit(map[string]spec.Model{
			"ctr": spec.Counter{}, "st": spec.Stack{}, "mx": spec.MaxRegister{},
		}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			ctr := objects.NewCounter(sys, "ctr")
			st := objects.NewStack(sys, "st", cells(procs, ops))
			mx := objects.NewMaxRegister(sys, "mx")
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					switch i % 3 {
					case 0:
						ctr.Inc(c)
					case 1:
						st.Push(c, uint64(c.P())<<32|uint64(i)+1)
						st.Pop(c)
					case 2:
						mx.WriteMax(c, uint64(i)+1)
					}
				}
			})
		},
	},
	"stack": {
		Name:   "stack",
		Models: explicit(map[string]spec.Model{"stk": spec.Stack{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			s := objects.NewStack(sys, "stk", cells(procs, ops))
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					s.Push(c, uint64(c.P()*1000+i))
					if i%2 == 1 {
						s.Pop(c)
					}
				}
			})
		},
	},
	"queue": {
		Name:   "queue",
		Models: explicit(map[string]spec.Model{"q": spec.Queue{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			q := objects.NewQueue(sys, "q", cells(procs, ops))
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					q.Enqueue(c, uint64(c.P()*1000+i))
					if i%2 == 1 {
						q.Dequeue(c)
					}
				}
			})
		},
	},
	"lock": {
		Name:   "lock",
		Models: explicit(map[string]spec.Model{"lock": spec.Mutex{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			l := rme.NewLock(sys, "lock")
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					l.Acquire(c)
					l.Release(c)
				}
			})
		},
	},
	"universal": {
		Name:   "universal",
		Models: explicit(map[string]spec.Model{"u": spec.Queue{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			u := universal.New(sys, "u", spec.Queue{}, cells(procs, ops), []string{"ENQ", "DEQ"})
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					u.Invoke(c, "ENQ", uint64(c.P()*1000+i))
					if i%2 == 1 {
						u.Invoke(c, "DEQ")
					}
				}
			})
		},
	},
	"wf-universal": {
		Name:   "wf-universal",
		Models: explicit(map[string]spec.Model{"w": spec.Counter{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			u := universal.NewWaitFree(sys, "w", spec.Counter{}, cells(procs, ops), []string{"INC", "READ"})
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					u.Invoke(c, "INC")
					if i%2 == 1 {
						u.Invoke(c, "READ")
					}
				}
			})
		},
	},
	"broken": {
		Name:       "broken",
		FixedProcs: 1,
		Broken:     true,
		Models:     explicit(map[string]spec.Model{"bctr": spec.Counter{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			ctr := objects.NewBrokenCounter(sys, "bctr")
			return uniform(1, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					ctr.Inc(c)
					ctr.Read(c)
				}
			})
		},
	},
	"strawman": {
		// Theorem 4's wait-free-recovery test-and-set: recovery re-executes
		// the primitive, so a crash after both processes applied it can
		// hand out a second win.
		Name:   "strawman",
		Broken: true,
		Models: explicit(map[string]spec.Model{"t": spec.TAS{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			o := valency.NewRetryTAS(sys, "t")
			return uniform(procs, func(c *proc.Ctx) { o.TestAndSet(c) })
		},
	},
	"stuck": {
		Name:   "stuck",
		Broken: true,
		Models: explicit(map[string]spec.Model{"stuck0": stuckModel{}}),
		Build: func(sys *proc.System, procs, ops int) map[int]func(*proc.Ctx) {
			o := objects.NewStuck(sys, "stuck0")
			return uniform(procs, func(c *proc.Ctx) {
				for i := 0; i < ops; i++ {
					o.Get(c)
				}
			})
		},
	},
}

// stuckModel is the trivial specification of the Stuck strawman: GET
// always returns the flag's initial value 0 (nothing ever writes it).
type stuckModel struct{}

func (stuckModel) Name() string { return "stuck" }
func (stuckModel) Init() any    { return nil }
func (stuckModel) Apply(state any, op string, args []uint64) (any, uint64, error) {
	if op != "GET" {
		return nil, 0, fmt.Errorf("stuck: unknown op %q", op)
	}
	return state, 0, nil
}
