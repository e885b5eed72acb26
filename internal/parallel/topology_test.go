package parallel

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// TestParseCPUList pins the kernel cpulist grammar: ids and inclusive
// ranges in list order, whitespace around tokens allowed, and every
// malformed, negative, inverted or out-of-range token rejected.
func TestParseCPUList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"0-3", []int{0, 1, 2, 3}},
		{"8,0-2", []int{8, 0, 1, 2}},
		{" 1 - 2 , 4 ", []int{1, 2, 4}},
		{"7", []int{7}},
	} {
		got, err := parseCPUList(tc.in)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseCPUList(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{
		"",            // empty list
		"0-",          // open range
		"3-1",         // inverted range
		"a-b",         // not numbers
		"-2",          // negative
		"0-65536",     // range reaches the CPU id ceiling
		"70000",       // id above the ceiling
		"0-65535,0-1", // longer than the id space: ids repeat
	} {
		if _, err := parseCPUList(bad); err == nil {
			t.Errorf("parseCPUList(%q): want error, got none", bad)
		}
	}
}

// FuzzParseCPUList checks that no cpulist panics or allocates without
// bound, and that an accepted list holds at most maxCPUID ids, each below
// maxCPUID.
func FuzzParseCPUList(f *testing.F) {
	for _, seed := range []string{
		"0-3;4-7", "8,0-2;5,3-4", "0", " 1 - 2 , 4 ;3", "0-3;", "3-1", "-2",
		"0-65535", "0-65535,0-1", "0-4000000000", "0-9223372036854775807", "70000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, list string) {
		cpus, err := parseCPUList(list)
		if err != nil {
			return
		}
		if len(cpus) > maxCPUID {
			t.Fatalf("parseCPUList(%q) accepted %d ids", list, len(cpus))
		}
		for _, c := range cpus {
			if c < 0 || c >= maxCPUID {
				t.Fatalf("parseCPUList(%q) accepted CPU %d", list, c)
			}
		}
	})
}

// cpuCount sums the CPUs over a topology's domains.
func cpuCount(topo *Topology) int {
	n := 0
	for _, cpus := range topo.domains {
		n += len(cpus)
	}
	return n
}

// writeNodeTree materializes a fake /sys/devices/system/node tree: one
// node<id> directory per entry, each with a cpulist file.
func writeNodeTree(t *testing.T, nodes map[int]string, extra ...string) string {
	t.Helper()
	root := t.TempDir()
	for id, cpulist := range nodes {
		dir := filepath.Join(root, "node"+strconv.Itoa(id))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "cpulist"), []byte(cpulist+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range extra {
		if err := os.WriteFile(filepath.Join(root, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestTopologySysfsSingleNode(t *testing.T) {
	root := writeNodeTree(t, map[int]string{0: "0-3"})
	topo, err := parseSysfsTopology(root)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Domains() != 1 || cpuCount(topo) != 4 {
		t.Fatalf("got %d domains / %d CPUs, want 1 / 4", topo.Domains(), cpuCount(topo))
	}
}

func TestTopologySysfsTwoNodes(t *testing.T) {
	// "node"-prefixed non-node entries (node_list here mimics sysfs's
	// has_cpu/possible files) must not be mistaken for nodes.
	root := writeNodeTree(t, map[int]string{0: "0-3", 1: "4-7"}, "node_list")
	topo, err := parseSysfsTopology(root)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Domains() != 2 || cpuCount(topo) != 8 {
		t.Fatalf("got %d domains / %d CPUs, want 2 / 8", topo.Domains(), cpuCount(topo))
	}
	if got := topo.domains[1]; got[0] != 4 {
		t.Fatalf("domain of node1 starts at CPU %d, want 4", got[0])
	}
}

// TestTopologySysfsSparseNodes pins hotplug-style numbering: node0 and
// node3 with no node1/node2. Domains order by node number.
func TestTopologySysfsSparseNodes(t *testing.T) {
	root := writeNodeTree(t, map[int]string{3: "0-1", 0: "2-3"})
	topo, err := parseSysfsTopology(root)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Domains() != 2 {
		t.Fatalf("got %d domains, want 2", topo.Domains())
	}
	if got := topo.domains[0]; got[0] != 2 {
		t.Fatalf("domain of node0 starts at CPU %d, want 2 (ordered by node number)", got[0])
	}
}

// TestTopologySysfsMemoryOnlyNode pins that CPU-less (memory-only) nodes
// are skipped rather than failing detection or producing empty domains.
func TestTopologySysfsMemoryOnlyNode(t *testing.T) {
	root := writeNodeTree(t, map[int]string{0: "0-3", 1: ""})
	topo, err := parseSysfsTopology(root)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Domains() != 1 || cpuCount(topo) != 4 {
		t.Fatalf("got %d domains / %d CPUs, want 1 / 4 (memory-only node skipped)", topo.Domains(), cpuCount(topo))
	}
}

// TestTopologySysfsMalformed pins the fallback contract: a corrupt tree is
// an error from the parser (so DetectTopology falls through), never a
// panic or a bogus topology.
func TestTopologySysfsMalformed(t *testing.T) {
	if _, err := parseSysfsTopology(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing root: want error")
	}
	if _, err := parseSysfsTopology(writeNodeTree(t, map[int]string{0: "zebra"})); err == nil {
		t.Error("garbage cpulist: want error")
	}
	if _, err := parseSysfsTopology(writeNodeTree(t, map[int]string{0: "0-1", 1: "1-2"})); err == nil {
		t.Error("overlapping cpulists: want error")
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "node0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := parseSysfsTopology(root); err == nil {
		t.Error("node dir without cpulist: want error")
	}
}
