package parallel

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// mustTopo parses a MTTKRP_TOPOLOGY-style spec or fails the test.
func mustTopo(t *testing.T, spec string) *Topology {
	t.Helper()
	topo, err := ParseTopology(spec)
	if err != nil {
		t.Fatalf("ParseTopology(%q): %v", spec, err)
	}
	return topo
}

func TestTopologyParseSpec(t *testing.T) {
	topo := mustTopo(t, "0-3;4-7")
	if topo.Domains() != 2 || topo.CPUs() != 8 {
		t.Fatalf("got %d domains / %d CPUs, want 2 / 8", topo.Domains(), topo.CPUs())
	}
	if got := topo.DomainCPUs(1); len(got) != 4 || got[0] != 4 || got[3] != 7 {
		t.Fatalf("domain 1 CPUs = %v, want [4 5 6 7]", got)
	}

	// Mixed ranges and single ids, unsorted input: CPUs come back sorted
	// within the domain.
	topo = mustTopo(t, "8,0-2;5,3-4")
	if topo.Domains() != 2 || topo.CPUs() != 7 {
		t.Fatalf("got %d domains / %d CPUs, want 2 / 7", topo.Domains(), topo.CPUs())
	}
	if got := topo.DomainCPUs(0); got[0] != 0 || got[3] != 8 {
		t.Fatalf("domain 0 CPUs = %v, want sorted [0 1 2 8]", got)
	}

	for _, bad := range []string{
		"",        // empty spec
		"0-3;",    // empty domain
		"0-3;2-5", // CPU 2 and 3 in two domains
		"0-",      // open range
		"3-1",     // inverted range
		"a-b",     // not numbers
		"-2",      // negative
		"0-65536", // range reaches the CPU id ceiling
		"70000",   // id above the ceiling
	} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q): want error, got none", bad)
		}
	}
}

// FuzzParseTopology checks that no spec panics or allocates without bound,
// that an accepted spec names only CPU ids below the ceiling, and that its
// domains' cpulists, joined by semicolons, parse back to the same domains.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{
		"0-3;4-7", "8,0-2;5,3-4", "0", " 1 - 2 , 4 ;3", "0-3;", "3-1", "-2",
		"0-65535", "0-65535,0-1", "0-4000000000", "0-9223372036854775807", "70000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseTopology(spec)
		if err != nil {
			return
		}
		if topo.CPUs() > maxCPUID {
			t.Fatalf("ParseTopology(%q) accepted %d CPUs", spec, topo.CPUs())
		}
		lists := make([]string, topo.Domains())
		for d := range lists {
			cpus := topo.DomainCPUs(d)
			if cpus[len(cpus)-1] >= maxCPUID {
				t.Fatalf("ParseTopology(%q) accepted CPU %d", spec, cpus[len(cpus)-1])
			}
			lists[d] = formatCPUList(cpus)
		}
		again, err := ParseTopology(strings.Join(lists, ";"))
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", strings.Join(lists, ";"), spec, err)
		}
		if again.Domains() != topo.Domains() {
			t.Fatalf("re-parse of %q: %d domains, want %d", spec, again.Domains(), topo.Domains())
		}
		for d := range lists {
			if !slices.Equal(again.DomainCPUs(d), topo.DomainCPUs(d)) {
				t.Fatalf("re-parse of %q: domain %d = %v, want %v", spec, d, again.DomainCPUs(d), topo.DomainCPUs(d))
			}
		}
	})
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
	if topo.Domains() != 1 || topo.CPUs() != 4 || topo.NodeID(0) != 0 {
		t.Fatalf("got %d domains / %d CPUs / node %d, want 1 / 4 / 0", topo.Domains(), topo.CPUs(), topo.NodeID(0))
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
	if topo.Domains() != 2 || topo.CPUs() != 8 {
		t.Fatalf("got %d domains / %d CPUs, want 2 / 8", topo.Domains(), topo.CPUs())
	}
	if topo.NodeID(0) != 0 || topo.NodeID(1) != 1 {
		t.Fatalf("node ids = %d, %d, want 0, 1", topo.NodeID(0), topo.NodeID(1))
	}
}

// TestTopologySysfsSparseNodes pins hotplug-style numbering: node0 and
// node3 with no node1/node2. Domains order by node number and keep the
// source ids.
func TestTopologySysfsSparseNodes(t *testing.T) {
	root := writeNodeTree(t, map[int]string{3: "0-1", 0: "2-3"})
	topo, err := parseSysfsTopology(root)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Domains() != 2 {
		t.Fatalf("got %d domains, want 2", topo.Domains())
	}
	if topo.NodeID(0) != 0 || topo.NodeID(1) != 3 {
		t.Fatalf("node ids = %d, %d, want 0, 3 (ordered by node number)", topo.NodeID(0), topo.NodeID(1))
	}
	if got := topo.DomainCPUs(0); got[0] != 2 {
		t.Fatalf("domain of node0 starts at CPU %d, want 2", got[0])
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
	if topo.Domains() != 1 || topo.CPUs() != 4 {
		t.Fatalf("got %d domains / %d CPUs, want 1 / 4 (memory-only node skipped)", topo.Domains(), topo.CPUs())
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

func TestTopologyDetectEnvOverride(t *testing.T) {
	t.Setenv(envTopology, "0-1;2-3")
	topo := DetectTopology()
	if topo.Domains() != 2 || topo.CPUs() != 4 {
		t.Fatalf("env override: got %d domains / %d CPUs, want 2 / 4", topo.Domains(), topo.CPUs())
	}

	// A malformed override is ignored, falling through to host detection,
	// which must always produce something usable.
	t.Setenv(envTopology, "not;a;topology")
	topo = DetectTopology()
	if topo == nil || topo.Domains() < 1 || topo.CPUs() < 1 {
		t.Fatalf("malformed env override: got %v, want a usable host topology", topo)
	}
}

// TestTopologySlotDomains pins the slot→domain rule: domain-major
// contiguous blocks, wrapping for slots beyond the machine width, stable
// regardless of team size.
func TestTopologySlotDomains(t *testing.T) {
	topo := mustTopo(t, "0-2;3-5")
	want := []int{0, 0, 0, 1, 1, 1, 0, 0, 0, 1}
	for slot, dom := range want {
		if got := topo.SlotDomain(slot); got != dom {
			t.Errorf("SlotDomain(%d) = %d, want %d", slot, got, dom)
		}
	}
	if got := topo.SlotDomain(-5); got != 0 {
		t.Errorf("SlotDomain(-5) = %d, want 0", got)
	}
}

func TestTopologyString(t *testing.T) {
	if got := mustTopo(t, "0-3;4-7,9").String(); got != "2 domains: node0=0-3 node1=4-7,9" {
		t.Fatalf("String() = %q", got)
	}
	if got := singleDomain(4).String(); got != "1 domain: node0=0-3" {
		t.Fatalf("String() = %q", got)
	}
}
