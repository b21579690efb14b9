package proc

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nrl/internal/history"
	"nrl/internal/nvm"
)

// childOp is a toy recoverable operation: it writes its argument to a word
// and returns arg+100. Its recovery function redoes the (idempotent) write.
//
//	1: (no-op)
//	2: A <- arg
//	3: return arg+100
//	10: RECOVER: proceed from line 2
type childOp struct {
	a nvm.Addr
}

func (o *childOp) Info() OpInfo {
	return OpInfo{Obj: "child", Op: "C", Entry: 1, RecoverEntry: 10}
}

func (o *childOp) Exec(c *Ctx, line int) uint64 {
	for {
		switch line {
		case 1:
			c.Step(1)
			line = 2
		case 2:
			c.Step(2)
			c.Write(o.a, c.Arg(0))
			line = 3
		case 3:
			c.Step(3)
			return c.Arg(0) + 100
		case 10:
			c.Step(10)
			line = 2
		default:
			panic("childOp: bad line")
		}
	}
}

// parentOp invokes childOp and persists the child's response in r.
//
//	1: (no-op)
//	2: v <- child.C(arg); r <- v
//	3: return r
//	10: RECOVER: if a child response was just delivered, persist it and
//	    return; if the child call had not begun (LI < 2), restart;
//	    if r was already persisted, return it; otherwise restart.
type parentOp struct {
	child *childOp
	r     nvm.Addr
}

func (o *parentOp) Info() OpInfo {
	return OpInfo{Obj: "parent", Op: "P", Entry: 1, RecoverEntry: 10}
}

func (o *parentOp) Exec(c *Ctx, line int) uint64 {
	for {
		switch line {
		case 1:
			c.Step(1)
			line = 2
		case 2:
			c.Step(2)
			v := c.Invoke(o.child, c.Arg(0))
			c.Write(o.r, v)
			line = 3
		case 3:
			c.Step(3)
			return c.Read(o.r)
		case 10:
			c.Step(10)
			if resp, ok := c.ChildResp(); ok {
				c.Write(o.r, resp)
				line = 3
				continue
			}
			if c.LI() < 2 || c.Read(o.r) == 0 {
				line = 1
				continue
			}
			line = 3
		default:
			panic("parentOp: bad line")
		}
	}
}

// liProbe records the value of LI observed on entry to its recovery
// function, before the recovery function takes any step of its own.
type liProbe struct {
	seenLI []int
}

func (o *liProbe) Info() OpInfo {
	return OpInfo{Obj: "probe", Op: "OP", Entry: 1, RecoverEntry: 10}
}

func (o *liProbe) Exec(c *Ctx, line int) uint64 {
	for {
		switch line {
		case 1:
			c.Step(1)
			line = 2
		case 2:
			c.Step(2)
			line = 3
		case 3:
			c.Step(3)
			return 7
		case 10:
			o.seenLI = append(o.seenLI, c.LI())
			c.Step(10)
			line = 1
		default:
			panic("liProbe: bad line")
		}
	}
}

func newTestSystem(t *testing.T, n int, inj Injector) (*System, *history.Recorder) {
	t.Helper()
	rec := history.NewRecorder()
	sys := NewSystem(Config{Procs: n, Recorder: rec, Injector: inj})
	return sys, rec
}

func TestCrashFreeInvoke(t *testing.T) {
	sys, rec := newTestSystem(t, 1, nil)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	c := sys.Proc(1).Ctx()
	if got := c.Invoke(child, 5); got != 105 {
		t.Errorf("Invoke = %d, want 105", got)
	}
	if got := sys.Mem().Read(child.a); got != 5 {
		t.Errorf("A = %d, want 5", got)
	}
	h := rec.History()
	if h.Len() != 2 || h.Steps[0].Kind != history.Inv || h.Steps[1].Kind != history.Res {
		t.Fatalf("unexpected history:\n%s", h)
	}
	if h.Steps[1].Ret != 105 {
		t.Errorf("recorded Ret = %d, want 105", h.Steps[1].Ret)
	}
	if err := h.CheckRecoverableWellFormed(); err != nil {
		t.Error(err)
	}
	if sys.Proc(1).Crashes() != 0 {
		t.Error("unexpected crashes")
	}
}

func TestCrashAndRecoverSimple(t *testing.T) {
	inj := &AtLine{Obj: "child", Line: 2}
	sys, rec := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	c := sys.Proc(1).Ctx()
	if got := c.Invoke(child, 9); got != 109 {
		t.Errorf("Invoke = %d, want 109", got)
	}
	if got := sys.Mem().Read(child.a); got != 9 {
		t.Errorf("A = %d, want 9", got)
	}
	if !inj.Fired() {
		t.Fatal("injector did not fire")
	}
	if got := sys.Proc(1).Crashes(); got != 1 {
		t.Errorf("Crashes = %d, want 1", got)
	}
	h := rec.History()
	if err := h.CheckRecoverableWellFormed(); err != nil {
		t.Fatalf("%v\n%s", err, h)
	}
	kinds := make([]history.Kind, 0, h.Len())
	for _, s := range h.Steps {
		kinds = append(kinds, s.Kind)
	}
	want := []history.Kind{history.Inv, history.Crash, history.Rec, history.Res}
	if len(kinds) != len(want) {
		t.Fatalf("history has %d steps, want %d:\n%s", len(kinds), len(want), h)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("step %d kind = %v, want %v\n%s", i, kinds[i], want[i], h)
		}
	}
}

func TestNestedCrashCascade(t *testing.T) {
	// Crash inside the child: the child's recovery completes it, then the
	// parent's recovery runs and receives the child's response.
	inj := &AtLine{Obj: "child", Line: 2}
	sys, rec := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	parent := &parentOp{child: child, r: sys.Mem().Alloc("R", 0)}
	c := sys.Proc(1).Ctx()
	if got := c.Invoke(parent, 3); got != 103 {
		t.Errorf("Invoke = %d, want 103", got)
	}
	h := rec.History()
	if err := h.CheckRecoverableWellFormed(); err != nil {
		t.Fatalf("%v\n%s", err, h)
	}
	// The crash step must be attributed to the inner-most pending op.
	var crash *history.Step
	for i := range h.Steps {
		if h.Steps[i].Kind == history.Crash {
			crash = &h.Steps[i]
		}
	}
	if crash == nil || crash.Obj != "child" {
		t.Fatalf("crash step not attributed to child:\n%s", h)
	}
	// Child's response must precede parent's response.
	childRes, parentRes := -1, -1
	for i, s := range h.Steps {
		if s.Kind == history.Res {
			if s.Obj == "child" {
				childRes = i
			} else if s.Obj == "parent" {
				parentRes = i
			}
		}
	}
	if childRes == -1 || parentRes == -1 || childRes > parentRes {
		t.Fatalf("bad response order (child %d, parent %d):\n%s", childRes, parentRes, h)
	}
}

func TestCrashAfterChildCompleted(t *testing.T) {
	// Crash at the parent's line 3, after the child completed normally and
	// the parent persisted the response: the parent is the crashed
	// operation and its recovery must find r already written.
	inj := &AtLine{Obj: "parent", Line: 3}
	sys, rec := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	parent := &parentOp{child: child, r: sys.Mem().Alloc("R", 0)}
	c := sys.Proc(1).Ctx()
	if got := c.Invoke(parent, 4); got != 104 {
		t.Errorf("Invoke = %d, want 104", got)
	}
	h := rec.History()
	if err := h.CheckRecoverableWellFormed(); err != nil {
		t.Fatalf("%v\n%s", err, h)
	}
	// Exactly one child invocation: the child must not be re-executed.
	n := 0
	for _, s := range h.Steps {
		if s.Kind == history.Inv && s.Obj == "child" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("child invoked %d times, want 1:\n%s", n, h)
	}
}

func TestLISetAfterCrashCheck(t *testing.T) {
	// A crash "about to execute line 2" must leave LI at 1: the
	// instruction at line 2 has not begun.
	tests := []struct {
		line   int
		wantLI int
	}{
		{line: 1, wantLI: 0},
		{line: 2, wantLI: 1},
		{line: 3, wantLI: 2},
	}
	for _, tt := range tests {
		probe := &liProbe{}
		inj := &AtLine{Obj: "probe", Line: tt.line}
		sys, _ := newTestSystem(t, 1, inj)
		c := sys.Proc(1).Ctx()
		if got := c.Invoke(probe); got != 7 {
			t.Fatalf("Invoke = %d, want 7", got)
		}
		if len(probe.seenLI) != 1 || probe.seenLI[0] != tt.wantLI {
			t.Errorf("crash at line %d: recovery saw LI %v, want [%d]", tt.line, probe.seenLI, tt.wantLI)
		}
	}
}

func TestCrashDuringRecovery(t *testing.T) {
	inj := Multi{
		&AtLine{Obj: "child", Line: 2},
		&AtLine{Obj: "child", Line: 10},
	}
	sys, rec := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	c := sys.Proc(1).Ctx()
	if got := c.Invoke(child, 8); got != 108 {
		t.Errorf("Invoke = %d, want 108", got)
	}
	if got := sys.Proc(1).Crashes(); got != 2 {
		t.Errorf("Crashes = %d, want 2", got)
	}
	h := rec.History()
	if err := h.CheckRecoverableWellFormed(); err != nil {
		t.Fatalf("%v\n%s", err, h)
	}
	crashes := 0
	for _, s := range h.Steps {
		if s.Kind == history.Crash {
			crashes++
		}
	}
	if crashes != 2 {
		t.Errorf("history has %d crash steps, want 2:\n%s", crashes, h)
	}
}

func TestChildRespClearedByCrash(t *testing.T) {
	// Crash in the child, then crash again at the parent's first recovery
	// step: the delivered child response is volatile and must be gone when
	// the parent's recovery finally runs.
	inj := Multi{
		&AtLine{Obj: "child", Line: 2},
		&AtLine{Obj: "parent", Line: 10},
	}
	sys, rec := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	parent := &parentOp{child: child, r: sys.Mem().Alloc("R", 0)}
	c := sys.Proc(1).Ctx()
	// The parent's recovery, finding no child response and r unset,
	// restarts; the (idempotent) child runs again; result unchanged.
	if got := c.Invoke(parent, 6); got != 106 {
		t.Errorf("Invoke = %d, want 106", got)
	}
	if err := rec.History().CheckRecoverableWellFormed(); err != nil {
		t.Error(err)
	}
	if got := sys.Proc(1).Crashes(); got != 2 {
		t.Errorf("Crashes = %d, want 2", got)
	}
}

func TestArgsSurviveCrash(t *testing.T) {
	inj := &AtLine{Obj: "child", Line: 2, Occurrence: 1}
	sys, _ := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	c := sys.Proc(1).Ctx()
	c.Invoke(child, 77)
	if got := sys.Mem().Read(child.a); got != 77 {
		t.Errorf("A = %d, want 77 (argument must survive the crash)", got)
	}
}

func TestAtLineOccurrence(t *testing.T) {
	inj := &AtLine{Obj: "child", Line: 2, Occurrence: 2}
	sys, _ := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	c := sys.Proc(1).Ctx()
	c.Invoke(child, 1) // first pass of line 2: no crash
	if inj.Fired() {
		t.Fatal("injector fired on first occurrence, want second")
	}
	c.Invoke(child, 2) // second pass: crash
	if !inj.Fired() {
		t.Fatal("injector did not fire on second occurrence")
	}
	if got := sys.Proc(1).Crashes(); got != 1 {
		t.Errorf("Crashes = %d, want 1", got)
	}
}

func TestAtStepInjector(t *testing.T) {
	inj := &AtStep{Proc: 1, Step: 2}
	sys, _ := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	c := sys.Proc(1).Ctx()
	if got := c.Invoke(child, 3); got != 103 {
		t.Errorf("Invoke = %d, want 103", got)
	}
	if got := sys.Proc(1).Crashes(); got != 1 {
		t.Errorf("Crashes = %d, want 1", got)
	}
}

func TestRandomInjectorBounded(t *testing.T) {
	inj := &Random{Rate: 0.2, Seed: 42, MaxCrashes: 5}
	sys, rec := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	c := sys.Proc(1).Ctx()
	for i := 0; i < 50; i++ {
		if got := c.Invoke(child, uint64(i+1)); got != uint64(i+1)+100 {
			t.Fatalf("Invoke(%d) = %d", i+1, got)
		}
	}
	if got := inj.Crashes(); got > 5 {
		t.Errorf("injector produced %d crashes, budget was 5", got)
	}
	if err := rec.History().CheckRecoverableWellFormed(); err != nil {
		t.Error(err)
	}
}

func TestFuncAndNeverInjectors(t *testing.T) {
	if (Never{}).ShouldCrash(CrashPoint{}) {
		t.Error("Never crashed")
	}
	calls := 0
	f := Func(func(pt CrashPoint) bool {
		calls++
		return false
	})
	sys, _ := newTestSystem(t, 1, f)
	sys.Proc(1).Ctx().Invoke(&childOp{a: sys.Mem().Alloc("A", 0)}, 1)
	if calls == 0 {
		t.Error("Func injector never consulted")
	}
}

func TestFreeSchedulerConcurrent(t *testing.T) {
	sys, rec := newTestSystem(t, 4, nil)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	for p := 1; p <= 4; p++ {
		sys.Go(p, func(c *Ctx) {
			for i := 0; i < 25; i++ {
				c.Invoke(child, uint64(c.P()))
			}
		})
	}
	sys.Wait()
	h := rec.History()
	if err := h.CheckRecoverableWellFormed(); err != nil {
		t.Fatal(err)
	}
	if got := len(h.NoCrash().Ops()); got != 100 {
		t.Errorf("recorded %d ops, want 100", got)
	}
	if sys.GlobalSteps() == 0 {
		t.Error("GlobalSteps = 0")
	}
}

func TestControlledSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) string {
		rec := history.NewRecorder()
		sys := NewSystem(Config{
			Procs:     3,
			Recorder:  rec,
			Scheduler: NewControlled(RandomPicker(seed)),
		})
		child := &childOp{a: sys.Mem().Alloc("A", 0)}
		bodies := make(map[int]func(*Ctx))
		for p := 1; p <= 3; p++ {
			bodies[p] = func(c *Ctx) {
				for i := 0; i < 10; i++ {
					c.Invoke(child, uint64(c.P()*100+i))
				}
			}
		}
		sys.Run(bodies)
		return rec.History().String()
	}
	a := run(7)
	b := run(7)
	if a != b {
		t.Error("same seed produced different histories")
	}
	c := run(8)
	if a == c {
		t.Error("different seeds produced identical histories (suspicious)")
	}
}

func TestControlledRequiresRun(t *testing.T) {
	sys := NewSystem(Config{Procs: 1, Scheduler: NewControlled(nil)})
	defer func() {
		if recover() == nil {
			t.Error("Go without Run did not panic under controlled scheduler")
		}
	}()
	sys.Proc(1) // silence unused
	(&Controlled{}).Start(1)
	_ = sys
}

func TestScriptAndRoundRobinPickers(t *testing.T) {
	rr := RoundRobinPicker()
	cand := []int{1, 2, 3}
	got := []int{rr(cand, 0), rr(cand, 1), rr(cand, 2), rr(cand, 3)}
	want := []int{1, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("round-robin pick %d = %d, want %d", i, got[i], want[i])
		}
	}
	sp := ScriptPicker([]int{3, 9, 1}, nil)
	if p := sp(cand, 0); p != 3 {
		t.Errorf("script pick = %d, want 3", p)
	}
	// 9 is not runnable and is skipped.
	if p := sp(cand, 1); p != 1 {
		t.Errorf("script pick = %d, want 1", p)
	}
	// Script exhausted: fall back to round-robin.
	if p := sp(cand, 2); p != 1 {
		t.Errorf("fallback pick = %d, want 1", p)
	}
}

func TestAwait(t *testing.T) {
	sys := NewSystem(Config{Procs: 2, Scheduler: NewControlled(RandomPicker(3))})
	flag := sys.Mem().Alloc("flag", 0)
	done := sys.Mem().Alloc("done", 0)
	waiter := &awaitOp{flag: flag, done: done}
	setter := &setOp{flag: flag}
	sys.Run(map[int]func(*Ctx){
		1: func(c *Ctx) { c.Invoke(waiter) },
		2: func(c *Ctx) { c.Invoke(setter) },
	})
	if got := sys.Mem().Read(done); got != 1 {
		t.Errorf("done = %d, want 1", got)
	}
}

type awaitOp struct{ flag, done nvm.Addr }

func (o *awaitOp) Info() OpInfo { return OpInfo{Obj: "aw", Op: "WAIT", Entry: 1, RecoverEntry: 1} }
func (o *awaitOp) Exec(c *Ctx, line int) uint64 {
	c.Await(1, func() bool { return c.Read(o.flag) == 1 })
	c.Step(2)
	c.Write(o.done, 1)
	return 0
}

type setOp struct{ flag nvm.Addr }

func (o *setOp) Info() OpInfo { return OpInfo{Obj: "st", Op: "SET", Entry: 1, RecoverEntry: 1} }
func (o *setOp) Exec(c *Ctx, line int) uint64 {
	c.Step(1)
	c.Write(o.flag, 1)
	return 0
}

func TestAwaitBudgetPanics(t *testing.T) {
	sys := NewSystem(Config{Procs: 1, AwaitBudget: 100})
	flag := sys.Mem().Alloc("flag", 0)
	op := &awaitOp{flag: flag, done: sys.Mem().Alloc("done", 0)}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Await did not panic on exceeded budget")
		}
		se, ok := r.(*StuckError)
		if !ok || !strings.Contains(se.Error(), "await budget") {
			t.Fatalf("unexpected panic value: %v", r)
		}
		if se.Report.Proc != 1 || se.Report.Line != 1 || se.Report.Budget != 100 {
			t.Errorf("report = %+v, want proc 1 line 1 budget 100", se.Report)
		}
		if len(se.Report.Parked) != 1 || se.Report.Parked[0].Obj != "aw" {
			t.Errorf("parked = %v, want the aw.WAIT await", se.Report.Parked)
		}
	}()
	sys.Proc(1).Ctx().Invoke(op)
}

func TestMultiInjectorOrder(t *testing.T) {
	a := &AtLine{Obj: "child", Line: 2}
	b := &AtLine{Obj: "child", Line: 2}
	m := Multi{a, b}
	pt := CrashPoint{Obj: "child", Op: "C", Line: 2}
	if !m.ShouldCrash(pt) {
		t.Fatal("Multi did not crash")
	}
	if !a.Fired() {
		t.Error("first member did not fire")
	}
	if b.Fired() {
		t.Error("second member fired although first already crashed")
	}
}

func TestCrashPointFields(t *testing.T) {
	var points []CrashPoint
	inj := Func(func(pt CrashPoint) bool {
		points = append(points, pt)
		return false
	})
	sys, _ := newTestSystem(t, 1, inj)
	child := &childOp{a: sys.Mem().Alloc("A", 0)}
	parent := &parentOp{child: child, r: sys.Mem().Alloc("R", 0)}
	sys.Proc(1).Ctx().Invoke(parent, 1)
	if len(points) == 0 {
		t.Fatal("no crash points observed")
	}
	var sawParentDepth, sawChildDepth bool
	for i, pt := range points {
		if pt.Proc != 1 {
			t.Errorf("point %d: Proc = %d", i, pt.Proc)
		}
		if pt.ProcStep != uint64(i+1) {
			t.Errorf("point %d: ProcStep = %d, want %d", i, pt.ProcStep, i+1)
		}
		switch pt.Obj {
		case "parent":
			if pt.Depth != 1 {
				t.Errorf("parent step at depth %d, want 1", pt.Depth)
			}
			sawParentDepth = true
		case "child":
			if pt.Depth != 2 {
				t.Errorf("child step at depth %d, want 2", pt.Depth)
			}
			sawChildDepth = true
		}
	}
	if !sawParentDepth || !sawChildDepth {
		t.Error("did not observe both nesting depths")
	}
	if last := points[len(points)-1].ProcStep; sys.GlobalSteps() != last {
		t.Errorf("GlobalSteps = %d, want the last point's ProcStep %d", sys.GlobalSteps(), last)
	}
	if got := sys.Proc(1).ID(); got != 1 {
		t.Errorf("ID = %d", got)
	}
	if got := sys.N(); got != 1 {
		t.Errorf("N = %d", got)
	}

	// Two processes under the controlled scheduler: the system-wide count
	// is the sum of the per-process counters, and every step offered
	// exactly one crash point.
	var offered atomic.Uint64
	sys2 := NewSystem(Config{Procs: 2, Scheduler: NewControlled(RandomPicker(5)),
		Injector: Func(func(CrashPoint) bool { offered.Add(1); return false })})
	child2 := &childOp{a: sys2.Mem().Alloc("A", 0)}
	parent2 := &parentOp{child: child2, r: sys2.Mem().Alloc("R", 0)}
	body := func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.Invoke(parent2, uint64(c.P()))
		}
	}
	if err := sys2.Run(map[int]func(*Ctx){1: body, 2: body}); err != nil {
		t.Fatal(err)
	}
	p1, p2 := sys2.Proc(1).Steps(), sys2.Proc(2).Steps()
	if p1 == 0 || p2 == 0 {
		t.Fatalf("per-process steps %d and %d, want both positive", p1, p2)
	}
	if got := sys2.GlobalSteps(); got != p1+p2 || got != offered.Load() {
		t.Errorf("GlobalSteps = %d, want Σ Proc.Steps() = %d = crash points offered %d", got, p1+p2, offered.Load())
	}
}

func TestRecoverPanicsCapturesFailures(t *testing.T) {
	sys := NewSystem(Config{Procs: 2, RecoverPanics: true})
	sys.Go(1, func(c *Ctx) { panic("boom") })
	sys.Go(2, func(c *Ctx) {})
	sys.Wait()
	err := sys.Err()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Err = %v, want captured panic", err)
	}
}

func TestRunReturnsCapturedFailure(t *testing.T) {
	sys := NewSystem(Config{Procs: 1, RecoverPanics: true, Scheduler: NewControlled(nil)})
	err := sys.Run(map[int]func(*Ctx){
		1: func(c *Ctx) { panic("kaput") },
	})
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Errorf("Run = %v, want captured panic", err)
	}
}

func TestPanicsPropagateByDefault(t *testing.T) {
	// Without RecoverPanics, a non-crash panic must escape Invoke so test
	// bugs fail loudly. Exercise through a direct Ctx (same goroutine).
	sys, _ := newTestSystem(t, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("panic did not propagate")
		}
	}()
	sys.Proc(1).Ctx().Invoke(&panicOp{})
}

type panicOp struct{}

func (o *panicOp) Info() OpInfo { return OpInfo{Obj: "p", Op: "BOOM", Entry: 1, RecoverEntry: 1} }
func (o *panicOp) Exec(c *Ctx, line int) uint64 {
	c.Step(1)
	panic("algorithm bug")
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSystem accepted Procs=0")
		}
	}()
	NewSystem(Config{})
}

// TestQuickLemma1 is the paper's Lemma 1 as a property test: every
// history produced by the model — whatever the workload, schedule and
// crash pattern — is recoverable well-formed.
func TestQuickLemma1(t *testing.T) {
	f := func(seed int64, rate uint8, nOps uint8) bool {
		rec := history.NewRecorder()
		inj := &Random{Rate: float64(rate%50) / 500, Seed: seed, MaxCrashes: 8}
		sys := NewSystem(Config{
			Procs:     2,
			Recorder:  rec,
			Injector:  inj,
			Scheduler: NewControlled(RandomPicker(seed)),
		})
		child := &childOp{a: sys.Mem().Alloc("A", 0)}
		parent := &parentOp{child: child, r: sys.Mem().Alloc("R", 0)}
		ops := int(nOps%8) + 1
		sys.Run(map[int]func(*Ctx){
			1: func(c *Ctx) {
				for i := 0; i < ops; i++ {
					c.Invoke(parent, uint64(i)+1)
				}
			},
			2: func(c *Ctx) {
				for i := 0; i < ops; i++ {
					c.Invoke(child, uint64(i)+100)
				}
			},
		})
		return rec.History().CheckRecoverableWellFormed() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
