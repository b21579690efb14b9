package harness

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"col", "value"},
	}
	tab.Add("row1", 3.14159)
	tab.Add("longer-row-name", 42)
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "a note", "col", "value", "row1", "3.1", "longer-row-name", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
