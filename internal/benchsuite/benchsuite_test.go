package benchsuite

import "testing"

// TestKernelTableContract pins what the committed reports rely on: names
// are unique, every kernel has a body, and quick and full tables list the
// same names in the same order, so a quick report diffs kernel-for-kernel
// against a full baseline. It builds the tables and runs no kernel.
func TestKernelTableContract(t *testing.T) {
	full, quick := Kernels(false), Kernels(true)
	if len(full) == 0 {
		t.Fatal("empty kernel table")
	}
	seen := make(map[string]bool, len(full))
	for _, k := range full {
		if k.Name == "" || k.F == nil {
			t.Fatalf("kernel %q: empty name or nil body", k.Name)
		}
		if seen[k.Name] {
			t.Fatalf("kernel %q listed twice", k.Name)
		}
		seen[k.Name] = true
	}
	if len(quick) != len(full) {
		t.Fatalf("quick table has %d kernels, full has %d", len(quick), len(full))
	}
	for i := range full {
		if quick[i].Name != full[i].Name {
			t.Fatalf("kernel %d: quick %q vs full %q", i, quick[i].Name, full[i].Name)
		}
		if quick[i].F == nil {
			t.Fatalf("quick kernel %q has a nil body", quick[i].Name)
		}
	}
}
