// Command nrlrepl manages and interrogates replicated durable stores: a
// replica.Set root holding member directories r0..r{n-1}, each a full
// persist store, kept in sync by leader-side WAL shipping and fenced by
// epochs.
//
// Usage:
//
//	nrlrepl init    -root DIR [-replicas N]
//	nrlrepl status  -root DIR [-replicas N]
//	nrlrepl verify  -root DIR [-replicas N]
//
// init creates the member directories and performs a first election so
// every member holds a durable genesis store. status scans the members
// read-only — no election, no healing — and reports each directory's
// durable credentials plus the leader the next open would elect. verify
// actually opens the set, letting recovery and catch-up run, and
// reports whether it came up serving. The replica-fault SIGKILL
// campaign is `nrlchaos -real -replicas 3`.
//
// Every subcommand prints a single JSON document on stdout.
//
// Exit codes: 0 clean, 1 degraded set (verify), 3 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"nrl/internal/harness"
	"nrl/internal/replica"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	if len(args) == 0 {
		usage(errOut)
		return harness.ExitUsage
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "init":
		return runInit(rest, out, errOut)
	case "status":
		return runStatus(rest, out, errOut)
	case "verify":
		return runVerify(rest, out, errOut)
	default:
		fmt.Fprintf(errOut, "nrlrepl: unknown command %q\n", cmd)
		usage(errOut)
		return harness.ExitUsage
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: nrlrepl {init|status|verify} -root DIR [flags]")
}

// setFlags declares the flags every subcommand shares.
func setFlags(fs *flag.FlagSet) (root *string, replicas *int) {
	root = fs.String("root", "", "replica-set root directory (members are ROOT/r0..)")
	replicas = fs.Int("replicas", 3, "replica-set size")
	return
}

func checkSetFlags(fs *flag.FlagSet, errOut io.Writer, root string, replicas int) bool {
	if root == "" {
		fmt.Fprintf(errOut, "nrlrepl %s: -root is required\n", fs.Name())
		return false
	}
	if replicas < 1 {
		fmt.Fprintf(errOut, "nrlrepl %s: -replicas must be >= 1\n", fs.Name())
		return false
	}
	return true
}

func emit(out io.Writer, v any) {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// memberScan is one member directory's read-only credentials.
type memberScan struct {
	Dir        string `json:"dir"`
	Epoch      uint64 `json:"epoch"`
	Prefix     uint64 `json:"prefix"`
	ManifestOK bool   `json:"manifest_ok"`
	Segments   int    `json:"segments"`
	Records    int    `json:"records"`
	PagesTorn  int    `json:"pages_torn"`
	Elect      bool   `json:"elect"`
	Err        string `json:"error,omitempty"`
}

// scanSet scans every member read-only and marks the directory the next
// election would pick (replica.Scan).
func scanSet(root string, replicas int) []memberScan {
	dirs := replica.MemberDirs(root, replicas)
	reps, errs, elect := replica.Scan(dirs)
	ms := make([]memberScan, len(dirs))
	for i, rep := range reps {
		ms[i] = memberScan{Dir: dirs[i], Elect: i == elect}
		if errs[i] != nil {
			ms[i].Err = errs[i].Error()
			continue
		}
		ms[i].Epoch = rep.Epoch
		ms[i].Prefix = rep.Prefix
		ms[i].ManifestOK = rep.ManifestOK
		ms[i].Segments = rep.Segments
		ms[i].Records = rep.Records
		ms[i].PagesTorn = rep.PagesTorn
	}
	return ms
}

// statusDoc is the JSON document of init and status.
type statusDoc struct {
	Root     string       `json:"root"`
	Replicas int          `json:"replicas"`
	Quorum   int          `json:"quorum"`
	Epoch    uint64       `json:"epoch"`
	Members  []memberScan `json:"members"`
}

func statusFromScan(root string, replicas int) statusDoc {
	doc := statusDoc{
		Root:     root,
		Replicas: replicas,
		Quorum:   replicas/2 + 1,
		Members:  scanSet(root, replicas),
	}
	for _, m := range doc.Members {
		if m.Elect {
			doc.Epoch = m.Epoch
		}
	}
	return doc
}

func runInit(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	fs.SetOutput(errOut)
	root, replicas := setFlags(fs)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if !checkSetFlags(fs, errOut, *root, *replicas) {
		return harness.ExitUsage
	}
	// Opening the set creates every member directory, elects a leader,
	// and attaches the followers; closing leaves a durable genesis store
	// in each.
	s, err := replica.Open(replica.Options{Dirs: replica.MemberDirs(*root, *replicas)})
	if err != nil {
		fmt.Fprintln(errOut, "nrlrepl init:", err)
		return harness.ExitUsage
	}
	if err := s.Close(); err != nil {
		fmt.Fprintln(errOut, "nrlrepl init:", err)
		return harness.ExitUsage
	}
	emit(out, statusFromScan(*root, *replicas))
	return harness.ExitClean
}

func runStatus(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	fs.SetOutput(errOut)
	root, replicas := setFlags(fs)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if !checkSetFlags(fs, errOut, *root, *replicas) {
		return harness.ExitUsage
	}
	emit(out, statusFromScan(*root, *replicas))
	return harness.ExitClean
}

// verifyDoc is the JSON document of verify: the live set status after a
// real open, plus the verdict.
type verifyDoc struct {
	OK     bool           `json:"ok"`
	Reason string         `json:"reason,omitempty"`
	Status replica.Status `json:"status"`
}

func runVerify(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(errOut)
	root, replicas := setFlags(fs)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if !checkSetFlags(fs, errOut, *root, *replicas) {
		return harness.ExitUsage
	}
	s, err := replica.Open(replica.Options{Dirs: replica.MemberDirs(*root, *replicas)})
	if err != nil {
		emit(out, verifyDoc{OK: false, Reason: err.Error()})
		return harness.ExitViolation
	}
	st := s.Status()
	doc := verifyDoc{OK: true, Status: st}
	healthy := 0
	for _, m := range st.Members {
		if m.Healthy {
			healthy++
		}
	}
	switch {
	case st.Degraded != "":
		doc.OK = false
		doc.Reason = "set is degraded: " + st.Degraded
	case healthy < st.Quorum:
		doc.OK = false
		doc.Reason = fmt.Sprintf("only %d of %d members healthy (quorum %d)",
			healthy, len(st.Members), st.Quorum)
	}
	if err := s.Close(); err != nil && doc.OK {
		doc.OK = false
		doc.Reason = "close: " + err.Error()
	}
	emit(out, doc)
	if !doc.OK {
		return harness.ExitViolation
	}
	return harness.ExitClean
}
