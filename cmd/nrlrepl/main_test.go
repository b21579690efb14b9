package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nrl/internal/harness"
)

func mustJSON(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b)
	}
}

func TestInitStatusVerify(t *testing.T) {
	root := filepath.Join(t.TempDir(), "set")
	var out, errOut bytes.Buffer

	if code := run([]string{"init", "-root", root}, &out, &errOut); code != harness.ExitClean {
		t.Fatalf("init exit %d: %s", code, errOut.String())
	}
	var st statusDoc
	mustJSON(t, out.Bytes(), &st)
	if st.Replicas != 3 || st.Quorum != 2 || len(st.Members) != 3 {
		t.Fatalf("init doc = %+v", st)
	}
	elected := 0
	for _, m := range st.Members {
		if !m.ManifestOK || m.Err != "" {
			t.Errorf("member %s not initialised: %+v", m.Dir, m)
		}
		if m.Elect {
			elected++
		}
	}
	if elected != 1 {
		t.Errorf("%d members marked elect, want 1", elected)
	}

	out.Reset()
	if code := run([]string{"status", "-root", root}, &out, &errOut); code != harness.ExitClean {
		t.Fatalf("status exit %d: %s", code, errOut.String())
	}
	mustJSON(t, out.Bytes(), &st)
	if len(st.Members) != 3 {
		t.Fatalf("status members = %d, want 3", len(st.Members))
	}

	out.Reset()
	if code := run([]string{"verify", "-root", root}, &out, &errOut); code != harness.ExitClean {
		t.Fatalf("verify exit %d: %s", code, errOut.String())
	}
	var vd verifyDoc
	mustJSON(t, out.Bytes(), &vd)
	if !vd.OK || vd.Status.Quorum != 2 || len(vd.Status.Members) != 3 {
		t.Fatalf("verify doc = %+v", vd)
	}
	if vd.Status.Members[0].Role != "leader" {
		t.Errorf("first member role = %q, want leader", vd.Status.Members[0].Role)
	}
}

// TestStatusSurvivesLostMember: status is read-only and must report a
// wiped member rather than fail or repair it.
func TestStatusSurvivesLostMember(t *testing.T) {
	root := filepath.Join(t.TempDir(), "set")
	var out, errOut bytes.Buffer
	if code := run([]string{"init", "-root", root}, &out, &errOut); code != harness.ExitClean {
		t.Fatalf("init exit %d: %s", code, errOut.String())
	}
	if err := os.RemoveAll(filepath.Join(root, "r2")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"status", "-root", root}, &out, &errOut); code != harness.ExitClean {
		t.Fatalf("status exit %d: %s", code, errOut.String())
	}
	var st statusDoc
	mustJSON(t, out.Bytes(), &st)
	if st.Members[2].ManifestOK {
		t.Errorf("wiped member reported a manifest: %+v", st.Members[2])
	}
	if _, err := os.Stat(filepath.Join(root, "r2")); !os.IsNotExist(err) {
		t.Error("status recreated the wiped member directory")
	}
	// Verify, by contrast, opens the set and heals the member back in.
	out.Reset()
	if code := run([]string{"verify", "-root", root}, &out, &errOut); code != harness.ExitClean {
		t.Fatalf("verify exit %d: %s", code, errOut.String())
	}
	var vd verifyDoc
	mustJSON(t, out.Bytes(), &vd)
	if !vd.OK {
		t.Fatalf("verify after wipe not ok: %+v", vd)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"status"},
		{"init", "-root", ""},
		{"verify", "-root", "x", "-replicas", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != harness.ExitUsage {
			t.Errorf("run(%v) exit %d, want %d", args, code, harness.ExitUsage)
		}
	}
}
