package proc

import (
	"testing"

	"nrl/internal/nvm"
	"nrl/internal/trace"
)

// memOuter and memInner exercise every memory primitive at two nesting
// depths, on words whose allocation names ("cell.*") differ from the
// operations' Obj, so a test can tell frame attribution from name
// attribution.
//
// memOuter:
//
//	1: W <- arg; persist W
//	2: return inner.IN()
//	10: RECOVER: read W; return the child's response
//
// memInner:
//
//	1: CAS(X, 0, 1); TAS(T); FAA(F, 5)
//	2: flush X; fence; return X
//	10: RECOVER: CAS(X, 0, 1) (fails: X survived); proceed from line 2
type memOuter struct {
	inner *memInner
	w     nvm.Addr
}

func (o *memOuter) Info() OpInfo {
	return OpInfo{Obj: "outer", Op: "OUT", Entry: 1, RecoverEntry: 10}
}

func (o *memOuter) Exec(c *Ctx, line int) uint64 {
	for {
		switch line {
		case 1:
			c.Step(1)
			c.Write(o.w, c.Arg(0))
			c.Persist(o.w)
			line = 2
		case 2:
			c.Step(2)
			return c.Invoke(o.inner)
		case 10:
			c.RecStep(10)
			c.Read(o.w)
			resp, _ := c.ChildResp()
			return resp
		default:
			panic("memOuter: bad line")
		}
	}
}

type memInner struct {
	x, t, f nvm.Addr
}

func (o *memInner) Info() OpInfo {
	return OpInfo{Obj: "inner", Op: "IN", Entry: 1, RecoverEntry: 10}
}

func (o *memInner) Exec(c *Ctx, line int) uint64 {
	for {
		switch line {
		case 1:
			c.Step(1)
			c.CAS(o.x, 0, 1)
			c.TAS(o.t)
			c.FAA(o.f, 5)
			line = 2
		case 2:
			c.Step(2)
			c.Flush(o.x)
			c.Fence()
			return c.Read(o.x)
		case 10:
			c.RecStep(10)
			c.CAS(o.x, 0, 1)
			line = 2
		default:
			panic("memInner: bad line")
		}
	}
}

// TestPrimitiveEventAttribution pins every field of the primitive
// trace events a traced process issues: one Buffered run of a nested
// operation with one crash in the inner frame, then depth-0 accesses.
// Inside an operation an event belongs to the inner-most pending frame
// (Obj, Op and Depth from the frame, recovery included); at depth 0 it
// falls back to the root of the word's allocation name. A flush carries
// the word's name, a fence no address, a CAS its outcome as Ret.
func TestPrimitiveEventAttribution(t *testing.T) {
	mem := nvm.New(nvm.WithMode(nvm.Buffered))
	ring := trace.NewRing(0)
	inj := &AtLine{Obj: "inner", Line: 2}
	sys := NewSystem(Config{Procs: 1, Mem: mem, Tracer: ring, Injector: inj})
	inner := &memInner{
		x: mem.Alloc("cell.x", 0),
		t: mem.Alloc("cell.t", 0),
		f: mem.Alloc("cell.f", 0),
	}
	outer := &memOuter{inner: inner, w: mem.Alloc("cell.w", 0)}
	c := sys.Proc(1).Ctx()
	if got := c.Invoke(outer, 7); got != 1 {
		t.Fatalf("Invoke = %d, want 1", got)
	}
	if !inj.Fired() {
		t.Fatal("injector did not fire")
	}
	c.Read(inner.x)
	c.FAA(inner.f, 1)
	c.Flush(outer.w)
	c.Fence()

	x, tw, f, w := int32(inner.x), int32(inner.t), int32(inner.f), int32(outer.w)
	const none = int32(nvm.InvalidAddr)
	out := func(k trace.Kind, addr int32, ret uint64, name string) trace.Event {
		return trace.Event{Kind: k, P: 1, Obj: "outer", Op: "OUT", Depth: 1, Addr: addr, Ret: ret, Name: name}
	}
	in := func(k trace.Kind, addr int32, ret uint64, name string) trace.Event {
		return trace.Event{Kind: k, P: 1, Obj: "inner", Op: "IN", Depth: 2, Addr: addr, Ret: ret, Name: name}
	}
	top := func(k trace.Kind, obj string, addr int32, ret uint64, name string) trace.Event {
		return trace.Event{Kind: k, P: 1, Obj: obj, Addr: addr, Ret: ret, Name: name}
	}
	want := []trace.Event{
		out(trace.MemWrite, w, 7, ""),
		out(trace.MemFlush, w, 0, "cell.w"),
		out(trace.MemFence, none, 0, ""),
		in(trace.MemCAS, x, 1, ""),
		in(trace.MemTAS, tw, 0, ""),
		in(trace.MemFAA, f, 0, ""),
		// crash at the inner frame's line 2; its recovery:
		in(trace.MemCAS, x, 0, ""),
		in(trace.MemFlush, x, 0, "cell.x"),
		in(trace.MemFence, none, 0, ""),
		in(trace.MemRead, x, 1, ""),
		// the outer frame's recovery:
		out(trace.MemRead, w, 7, ""),
		// depth 0:
		top(trace.MemRead, "cell", x, 1, ""),
		top(trace.MemFAA, "cell", f, 5, ""),
		top(trace.MemFlush, "cell", w, 0, "cell.w"),
		top(trace.MemFence, "", none, 0, ""),
	}
	var got []trace.Event
	for _, e := range ring.Events() {
		if e.Kind.Mem() {
			got = append(got, e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d primitive events, want %d:\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].P != want[i].P || got[i].Obj != want[i].Obj ||
			got[i].Op != want[i].Op || got[i].Depth != want[i].Depth || got[i].Addr != want[i].Addr ||
			got[i].Ret != want[i].Ret || got[i].Name != want[i].Name {
			t.Errorf("event %d = %+v\n          want %+v", i, got[i], want[i])
		}
	}
}
