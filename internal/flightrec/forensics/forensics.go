// Package forensics reconstructs a flight-recorder ring (package
// flightrec) into a recovery report: which operations were in flight on
// each process when the crash hit, at what nesting depth and LI_p, what
// had been fenced versus was still pending, and how the run had been
// going up to that point.
//
// The reconstruction replays the surviving records in seq order,
// rebuilding each process's frame stack by nesting depth — begin
// pushes, end/recover-exit pops — with the forgiving twists a black box
// needs. Shallow mode, the recorder's default, drops nested begins and
// ends but keeps crash and recovery records at their own depth, so a
// deeper crash or recover-enter stands for a frame of its own and an
// end or recover-exit never closes a shallower frame. A pop that finds
// no frame at its depth is attributed to a begin the ring wrap
// overwrote (counted, not fatal), and the report carries the valid/torn
// slot counts so a consumer can tell a complete story from a partial
// one.
package forensics

import (
	"fmt"
	"io"
	"sort"

	"nrl/internal/flightrec"
)

// OpNode is one in-flight operation frame reconstructed from the ring.
type OpNode struct {
	// Obj and Op name the operation.
	Obj string
	Op  string
	// Depth is the frame's nesting depth (1 = top level).
	Depth int
	// LI is the frame's last observed LI_p (from the begin record, later
	// checkpoint records in deep mode, or a crash record).
	LI int
	// Attempt is the last observed recovery attempt count.
	Attempt int
	// BeginSeq is the seq of the begin record that opened the frame
	// (0 when the frame is implied by a crash/recovery record: its begin
	// was lost to a ring wrap, or is a nested begin shallow mode never
	// records).
	BeginSeq uint32
	// Arg is the first argument recorded at begin.
	Arg uint64
	// Crashed reports a crash record struck while this frame was open
	// and no recovery has completed it.
	Crashed bool
	// Recovering reports a recover-enter was seen without a matching
	// recover-exit.
	Recovering bool
}

// ProcReport is the reconstruction for one process.
type ProcReport struct {
	// P is the process id.
	P int
	// InFlight is the frame stack still open at the end of the ring,
	// outermost first — the ops the crash interrupted.
	InFlight []OpNode
	// Begun/Ended count begin and end (normal-path) records; Crashes,
	// RecoverEnters and RecoverExits count their kinds; Fences counts
	// fence markers by this process.
	Begun         uint64
	Ended         uint64
	Crashes       uint64
	RecoverEnters uint64
	RecoverExits  uint64
	Fences        uint64
	// MaxBegunVal and MaxEndedVal are the largest payload values seen on
	// begin and end records — the kill harness's cross-check handles
	// (begin records the value about to be appended, end the value
	// acknowledged).
	MaxBegunVal uint64
	MaxEndedVal uint64
	// OrphanEnds counts end/recover-exit records that found no frame at
	// their depth: their begin was overwritten by the ring wrap.
	OrphanEnds uint64
	// LastSeq is the newest record seq attributed to this process;
	// LastFenceSeq the newest fence marker's seq.
	LastSeq      uint32
	LastFenceSeq uint32
}

// Report is the whole-ring reconstruction.
type Report struct {
	// Procs maps process id to its reconstruction.
	Procs map[int]*ProcReport
	// Records is how many records were replayed; Torn how many slots
	// failed their checksum (partial report); Wrapped whether the ring
	// overwrote its oldest records (seq 1 absent).
	Records int
	Torn    int
	Wrapped bool
	// Commits and CommitWords aggregate backend commit markers; Fences
	// counts all fence markers.
	Commits     uint64
	CommitWords uint64
	Fences      uint64
	// FirstSeq and LastSeq bound the surviving window.
	FirstSeq uint32
	LastSeq  uint32
	// Partial reports that the reconstruction is incomplete: torn slots,
	// a wrapped ring, or orphan ends mean some history is missing.
	Partial bool
}

// Proc returns the report for process p, creating an empty one if the
// ring holds no records for it.
func (r *Report) Proc(p int) *ProcReport {
	pr, ok := r.Procs[p]
	if !ok {
		pr = &ProcReport{P: p}
		r.Procs[p] = pr
	}
	return pr
}

// InFlightTotal returns the number of in-flight frames across all
// processes.
func (r *Report) InFlightTotal() int {
	n := 0
	for _, pr := range r.Procs {
		n += len(pr.InFlight)
	}
	return n
}

// Reconstruct replays records (any order; they are sorted by seq) into a
// Report. torn is the torn-slot count from decoding, carried through to
// the report's partial-ness.
func Reconstruct(recs []flightrec.Record, torn int) *Report {
	rep := &Report{Procs: map[int]*ProcReport{}, Torn: torn}
	sorted := make([]flightrec.Record, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	for _, rec := range sorted {
		rep.Records++
		if rep.FirstSeq == 0 || rec.Seq < rep.FirstSeq {
			rep.FirstSeq = rec.Seq
		}
		if rec.Seq > rep.LastSeq {
			rep.LastSeq = rec.Seq
		}
		pr := rep.Proc(rec.P)
		if rec.Seq > pr.LastSeq {
			pr.LastSeq = rec.Seq
		}
		switch rec.Kind {
		case flightrec.KindBegin:
			pr.Begun++
			if rec.Val > pr.MaxBegunVal {
				pr.MaxBegunVal = rec.Val
			}
			pr.InFlight = append(pr.InFlight, OpNode{
				Obj: rec.Obj, Op: rec.Op,
				Depth: rec.Depth, LI: rec.LI, Attempt: rec.Attempt,
				BeginSeq: rec.Seq, Arg: rec.Val,
			})
		case flightrec.KindEnd, flightrec.KindRecoverExit:
			if rec.Kind == flightrec.KindEnd {
				pr.Ended++
				if rec.Val > pr.MaxEndedVal {
					pr.MaxEndedVal = rec.Val
				}
			} else {
				pr.RecoverExits++
			}
			pr.pop(rec.Depth)
		case flightrec.KindCrash:
			pr.Crashes++
			fr := pr.frame(rec)
			fr.Crashed = true
			fr.Recovering = false
			fr.LI = rec.LI
			fr.Attempt = rec.Attempt
		case flightrec.KindRecoverEnter:
			pr.RecoverEnters++
			fr := pr.frame(rec)
			fr.Recovering = true
			fr.LI = rec.LI
			fr.Attempt = rec.Attempt
		case flightrec.KindCheckpoint:
			if n := len(pr.InFlight); n > 0 {
				pr.InFlight[n-1].LI = rec.LI
			}
		case flightrec.KindFence:
			pr.Fences++
			rep.Fences++
			pr.LastFenceSeq = rec.Seq
		case flightrec.KindCommit:
			rep.Commits++
			rep.CommitWords += rec.Val
		}
	}
	if rep.Records > 0 && rep.FirstSeq > 1 {
		rep.Wrapped = true
	}
	var orphans uint64
	for _, pr := range rep.Procs {
		orphans += pr.OrphanEnds
	}
	rep.Partial = rep.Torn > 0 || rep.Wrapped || orphans > 0
	return rep
}

// frame returns the in-flight frame a crash/recovery record belongs to:
// the inner-most frame, unless the record is deeper than that frame (or
// the stack is empty), in which case the record's own op is pushed as a
// synthesized frame (BeginSeq 0) at the record's depth. Missing frames
// between the two are represented by the synthesized node alone.
func (pr *ProcReport) frame(rec flightrec.Record) *OpNode {
	if n := len(pr.InFlight); n == 0 || rec.Depth > pr.InFlight[n-1].Depth {
		pr.InFlight = append(pr.InFlight, OpNode{
			Obj: rec.Obj, Op: rec.Op, Depth: rec.Depth,
			LI: rec.LI, Attempt: rec.Attempt,
		})
	}
	return &pr.InFlight[len(pr.InFlight)-1]
}

// pop closes the frame an end or recover-exit at depth completes,
// together with any deeper frames left open above it. Shallower frames
// stay: a nested op's completion never closes its parent. A pop that
// finds no frame at depth is an orphan.
func (pr *ProcReport) pop(depth int) {
	i, matched := len(pr.InFlight), false
	for i > 0 && pr.InFlight[i-1].Depth >= depth {
		i--
		matched = matched || pr.InFlight[i].Depth == depth
	}
	pr.InFlight = pr.InFlight[:i]
	if !matched {
		pr.OrphanEnds++
	}
}

// ProcIDs returns the process ids present, sorted.
func (r *Report) ProcIDs() []int {
	ids := make([]int, 0, len(r.Procs))
	for p := range r.Procs {
		ids = append(ids, p)
	}
	sort.Ints(ids)
	return ids
}

// Format renders the report as the human-readable recovery report the
// nrlstat forensics subcommand prints.
func (r *Report) Format(w io.Writer) {
	state := "complete"
	if r.Partial {
		state = "PARTIAL"
	}
	fmt.Fprintf(w, "flight recorder: %d records (seq %d..%d), %d torn, report %s\n",
		r.Records, r.FirstSeq, r.LastSeq, r.Torn, state)
	if r.Wrapped {
		fmt.Fprintf(w, "  ring wrapped: oldest history overwritten\n")
	}
	fmt.Fprintf(w, "  fences=%d commits=%d commit-words=%d in-flight=%d\n",
		r.Fences, r.Commits, r.CommitWords, r.InFlightTotal())
	for _, p := range r.ProcIDs() {
		pr := r.Procs[p]
		who := fmt.Sprintf("p%d", p)
		if p == 0 {
			who = "(unattributed)"
		}
		fmt.Fprintf(w, "%s: begun=%d ended=%d crashes=%d recover-enters=%d recover-exits=%d fences=%d",
			who, pr.Begun, pr.Ended, pr.Crashes, pr.RecoverEnters, pr.RecoverExits, pr.Fences)
		if pr.OrphanEnds > 0 {
			fmt.Fprintf(w, " orphan-ends=%d", pr.OrphanEnds)
		}
		fmt.Fprintln(w)
		outerBegun := false
		for _, fr := range pr.InFlight {
			status := "in flight"
			switch {
			case fr.Recovering:
				status = "recovering"
			case fr.Crashed:
				status = "crashed"
			}
			name := fr.Obj
			if fr.Op != "" {
				name += "/" + fr.Op
			}
			fmt.Fprintf(w, "  depth %d: %s %s (LI=%d attempt=%d arg=%d",
				fr.Depth, name, status, fr.LI, fr.Attempt, fr.Arg)
			// The ring loses only its oldest records, so a synthesized
			// frame nested inside a frame whose begin survived lost
			// nothing: its begin is one shallow mode never records.
			switch {
			case fr.BeginSeq != 0:
				outerBegun = true
			case outerBegun:
				fmt.Fprintf(w, ", nested begin not recorded")
			default:
				fmt.Fprintf(w, ", begin lost to wrap")
			}
			fmt.Fprintf(w, ")\n")
		}
	}
}
