package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// WitnessOrder checks the store-ordering lattice of the buffered
// discipline from PR 3: cell contents are persisted before the link that
// publishes them, the witness before the ack, the tag counter before an
// install can use it. The lattice is declared where it is owed — on the
// object's address fields — with a field comment:
//
//	val  []nvm.Addr // nrl:persist-before next(cas): contents before link
//	resVal []nvm.Addr // nrl:persist-before resValid(write): witness before ack
//
// `A // nrl:persist-before B(kind)` means: within any function, a store
// to an address rooted at field A must be persisted (Flush+Fence,
// Persist, or Ctx.PersistBuffered) before any operation of the given kind
// (write, cas, or any) touches field B on any path. Matching is at field
// granularity, so per-element addresses (val[idx]) are covered.
//
// The rule is path-sensitive over the refined CFG: a publication
// reachable from an unpersisted store is reported even when another
// branch persists correctly — exactly the bug class PR 3's power-failure
// sweeps needed a lucky crash index to expose.
var WitnessOrder = &Analyzer{
	Name: "witnessorder",
	Doc:  "stores must be persisted before the declared publication ops",
	Run:  runWitnessOrder,
}

// publishKind is the operation class that counts as publication.
type publishKind int

const (
	pubAny publishKind = iota
	pubWrite
	pubCAS
)

// orderConstraint is one parsed `nrl:persist-before` edge.
type orderConstraint struct {
	store   *types.Var // field whose stores must be persisted...
	publish *types.Var // ...before ops on this field
	kind    publishKind
}

const persistBeforeMarker = "nrl:persist-before"

// parseConstraints extracts the lattice from struct field comments.
func parseConstraints(p *Pass) []orderConstraint {
	var out []orderConstraint
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			// Resolve field names to objects within this struct.
			fieldObj := map[string]*types.Var{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						fieldObj[name.Name] = v
					}
				}
			}
			for _, fld := range st.Fields.List {
				if fld.Comment == nil || len(fld.Names) == 0 {
					continue
				}
				for _, c := range fld.Comment.List {
					spec, ok := cutMarker(c.Text)
					if !ok {
						continue
					}
					for _, tgt := range parseTargets(spec) {
						pubField, ok := fieldObj[tgt.name]
						if !ok {
							p.Reportf(c.Pos(), "bad-annotation",
								"nrl:persist-before target %q is not a field of this struct", tgt.name)
							continue
						}
						for _, name := range fld.Names {
							if src, ok := fieldObj[name.Name]; ok {
								out = append(out, orderConstraint{store: src, publish: pubField, kind: tgt.kind})
							}
						}
					}
				}
			}
			return true
		})
	}
	return out
}

type target struct {
	name string
	kind publishKind
}

// cutMarker returns the annotation payload of an nrl:persist-before
// comment: everything after the marker up to an optional ": rationale".
func cutMarker(comment string) (string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, persistBeforeMarker) {
		return "", false
	}
	spec := strings.TrimSpace(strings.TrimPrefix(text, persistBeforeMarker))
	if i := strings.Index(spec, ":"); i >= 0 {
		spec = spec[:i]
	}
	return strings.TrimSpace(spec), true
}

// parseTargets parses "next(cas), resValid(write), other".
func parseTargets(spec string) []target {
	var out []target
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind := pubAny
		if i := strings.Index(part, "("); i >= 0 && strings.HasSuffix(part, ")") {
			switch part[i+1 : len(part)-1] {
			case "write":
				kind = pubWrite
			case "cas":
				kind = pubCAS
			}
			part = part[:i]
		}
		out = append(out, target{name: part, kind: kind})
	}
	return out
}

func (k publishKind) matches(e *Event) bool {
	switch k {
	case pubWrite:
		return e.Kind == EvWrite
	case pubCAS:
		return e.Kind == EvRMW
	default:
		return e.Kind == EvWrite || e.Kind == EvRMW
	}
}

func (k publishKind) String() string {
	switch k {
	case pubWrite:
		return "write"
	case pubCAS:
		return "cas"
	default:
		return "op"
	}
}

func runWitnessOrder(p *Pass) error {
	constraints := parseConstraints(p)
	if len(constraints) == 0 {
		return nil
	}
	byStore := map[*types.Var][]orderConstraint{}
	for _, c := range constraints {
		byStore[c.store] = append(byStore[c.store], c)
	}

	for _, fn := range funcDecls(p) {
		be := functionEvents(p, fn)
		events := be.all()
		if len(events) == 0 {
			continue
		}
		for _, ev := range events {
			if ev.Kind != EvWrite {
				continue
			}
			fld := addrField(p.Info, ev.Addrs[0])
			if fld == nil {
				continue
			}
			for _, c := range byStore[fld] {
				c := c
				persisted := func(e *Event) bool {
					if !e.Flushes() {
						return false
					}
					for _, a := range e.Addrs {
						if addrField(p.Info, a) == c.store {
							return true
						}
					}
					return false
				}
				publishes := func(e *Event) bool {
					if e == ev || !c.kind.matches(e) {
						return false
					}
					for _, a := range e.Addrs {
						if addrField(p.Info, a) == c.publish {
							return true
						}
					}
					return false
				}
				if hit := be.reachesBefore(ev, persisted, publishes); hit != nil {
					pos := p.Fset.Position(hit.Pos)
					p.Reportf(ev.Pos, "order-violation",
						"store to %s reaches the %s of %s at %s before being persisted; nrl:persist-before requires flush+fence of %s first",
						fld.Name(), c.kind, c.publish.Name(), fmt.Sprintf("line %d", pos.Line), fld.Name())
				}
			}
		}
	}
	return nil
}
