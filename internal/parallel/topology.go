package parallel

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Topology describes the machine's placement domains — on linux, its NUMA
// nodes — as ordered sets of CPU ids. It is the vocabulary the placed
// runtime speaks: a placed Pool derives every worker slot's domain from the
// topology, leases prefer slot sets within one domain, and the serving
// scheduler prices budgets that would span domains (see serve.CostModel).
//
// A Topology is immutable after construction, so every layer reads it
// without locking. Topologies with one domain are deliberately
// indistinguishable from no topology at all: placement degenerates to the
// flat [0..n) slot model and nothing pins, reorders or prices anything —
// the fallback path for non-NUMA and non-linux hosts.
type Topology struct {
	domains [][]int // CPU ids per domain, each sorted and non-empty
	nodes   []int   // source node number per domain (dense 0.. for synthetic topologies)
	cpus    int     // total CPU count across domains
	slotDom []int   // domain of flattened domain-major CPU position i
}

// sysfsNodeRoot is where linux exposes NUMA nodes.
const sysfsNodeRoot = "/sys/devices/system/node"

// envTopology overrides detection for testing: domain CPU lists separated
// by semicolons, e.g. "0-3;4-7" (two domains of four CPUs). An empty or
// malformed value is ignored.
const envTopology = "MTTKRP_TOPOLOGY"

// DetectTopology resolves the host's placement topology. Resolution order:
// the MTTKRP_TOPOLOGY override (so tests and A/B runs can fake a
// multi-socket machine anywhere), then the linux sysfs node tree, then a
// single-domain fallback covering DefaultThreads CPUs. It never fails:
// malformed input at any layer falls through to the next.
func DetectTopology() *Topology {
	if spec := os.Getenv(envTopology); spec != "" {
		if t, err := ParseTopology(spec); err == nil {
			return t
		}
	}
	if t, err := parseSysfsTopology(sysfsNodeRoot); err == nil {
		return t
	}
	return singleDomain(DefaultThreads())
}

// ParseTopology builds a topology from the MTTKRP_TOPOLOGY spec: one CPU
// list per domain (kernel cpulist syntax, e.g. "0-3,8"), domains separated
// by semicolons. Domains must be non-empty and CPU ids must not repeat.
func ParseTopology(spec string) (*Topology, error) {
	var domains [][]int
	for _, part := range strings.Split(spec, ";") {
		cpus, err := parseCPUList(part)
		if err != nil {
			return nil, fmt.Errorf("parallel: topology spec %q: %v", spec, err)
		}
		domains = append(domains, cpus)
	}
	return newTopology(domains, nil)
}

// parseSysfsTopology reads a /sys/devices/system/node-shaped tree rooted at
// root. Node numbering may be sparse (hotplug), so domains are ordered by
// node number, not renumbered; memory-only nodes (empty cpulist) are
// skipped. Any read or parse failure is an error — the caller falls back.
func parseSysfsTopology(root string) (*Topology, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var nodes []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "node") {
			continue
		}
		id, err := strconv.Atoi(name[len("node"):])
		if err != nil || id < 0 {
			continue // "node" prefix on a non-node entry (e.g. "node_list")
		}
		nodes = append(nodes, id)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("parallel: no NUMA nodes under %s", root)
	}
	sort.Ints(nodes)
	var domains [][]int
	var ids []int
	for _, id := range nodes {
		b, err := os.ReadFile(filepath.Join(root, fmt.Sprintf("node%d", id), "cpulist"))
		if err != nil {
			return nil, err
		}
		list := strings.TrimSpace(string(b))
		if list == "" {
			continue // memory-only node: no CPUs to place workers on
		}
		cpus, err := parseCPUList(list)
		if err != nil {
			return nil, err
		}
		domains = append(domains, cpus)
		ids = append(ids, id)
	}
	return newTopology(domains, ids)
}

// maxCPUID bounds the CPU ids a cpulist may name. It sits above any linux
// NR_CPUS, and it keeps a range such as "0-4000000000" from allocating
// gigabytes before the topology can be validated.
const maxCPUID = 1 << 16

// parseCPUList parses the kernel cpulist format: comma-separated CPU ids
// and inclusive ranges ("0-3,8,10-11"). Ids at or above maxCPUID are an
// error, and so is a list longer than the id space, which must repeat ids.
func parseCPUList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("empty cpulist")
	}
	var cpus []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		lo, hi, ok := strings.Cut(tok, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil || a < 0 || a >= maxCPUID {
			return nil, fmt.Errorf("bad cpulist token %q", tok)
		}
		b := a
		if ok {
			if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil || b < a || b >= maxCPUID {
				return nil, fmt.Errorf("bad cpulist range %q", tok)
			}
		}
		if len(cpus)+b-a+1 > maxCPUID {
			return nil, fmt.Errorf("cpulist %q repeats CPU ids", s)
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// singleDomain is the non-NUMA fallback: one domain of n CPUs. Placement
// over a single domain is behaviorally identical to no placement.
func singleDomain(n int) *Topology {
	if n < 1 {
		n = 1
	}
	cpus := make([]int, n)
	for i := range cpus {
		cpus[i] = i
	}
	t, _ := newTopology([][]int{cpus}, nil)
	return t
}

// newTopology validates and freezes a domain list: every domain non-empty,
// CPUs sorted within domains, no CPU claimed twice. nodes supplies the
// source node numbers (nil means dense 0..len-1).
func newTopology(domains [][]int, nodes []int) (*Topology, error) {
	if len(domains) == 0 {
		return nil, fmt.Errorf("parallel: topology has no domains")
	}
	t := &Topology{domains: make([][]int, len(domains)), nodes: nodes}
	if t.nodes == nil {
		t.nodes = make([]int, len(domains))
		for d := range t.nodes {
			t.nodes[d] = d
		}
	}
	seen := make(map[int]bool)
	for d, cpus := range domains {
		if len(cpus) == 0 {
			return nil, fmt.Errorf("parallel: topology domain %d has no CPUs", d)
		}
		own := append([]int(nil), cpus...)
		sort.Ints(own)
		for _, c := range own {
			if seen[c] {
				return nil, fmt.Errorf("parallel: CPU %d in more than one topology domain", c)
			}
			seen[c] = true
		}
		t.domains[d] = own
		t.cpus += len(own)
	}
	// Flatten domain-major: slot w of any team maps to CPU position
	// w mod cpus, giving contiguous per-domain slot blocks for teams up to
	// the machine size and a stable mapping under pool growth.
	t.slotDom = make([]int, 0, t.cpus)
	for d, cpus := range t.domains {
		for range cpus {
			t.slotDom = append(t.slotDom, d)
		}
	}
	return t, nil
}

// Domains returns the number of placement domains.
func (t *Topology) Domains() int { return len(t.domains) }

// CPUs returns the total CPU count across all domains.
func (t *Topology) CPUs() int { return t.cpus }

// NodeID returns the source node number of domain d (the sysfs node number
// on linux; d itself for synthetic topologies).
func (t *Topology) NodeID(d int) int { return t.nodes[d] }

// DomainCPUs returns domain d's CPU ids. The slice is owned by the
// topology; callers must not mutate it.
func (t *Topology) DomainCPUs(d int) []int { return t.domains[d] }

// SlotDomain maps a worker slot id to its placement domain. Slots lay out
// domain-major — the first len(domain 0) slots belong to domain 0, the next
// block to domain 1, and so on — wrapping for teams wider than the machine.
// The mapping depends only on the topology, so it is stable across pool
// growth and identical for every pool sharing the topology.
//
//mttkrp:noalloc
func (t *Topology) SlotDomain(slot int) int {
	if slot < 0 {
		slot = 0
	}
	return t.slotDom[slot%t.cpus]
}

// String renders the topology for banners and logs, e.g.
// "2 domains: node0=0-3 node1=4-7".
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d domain", len(t.domains))
	if len(t.domains) != 1 {
		b.WriteByte('s')
	}
	b.WriteString(":")
	for d, cpus := range t.domains {
		fmt.Fprintf(&b, " node%d=%s", t.nodes[d], formatCPUList(cpus))
	}
	return b.String()
}

// formatCPUList renders sorted CPU ids back into kernel cpulist syntax.
func formatCPUList(cpus []int) string {
	var b strings.Builder
	for i := 0; i < len(cpus); {
		j := i
		for j+1 < len(cpus) && cpus[j+1] == cpus[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j > i {
			fmt.Fprintf(&b, "%d-%d", cpus[i], cpus[j])
		} else {
			fmt.Fprintf(&b, "%d", cpus[i])
		}
		i = j + 1
	}
	return b.String()
}
