package parallel

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Topology describes the host's NUMA nodes as ordered sets of CPU ids. It
// is a host description only: the runtime schedules every pool as one flat
// team of workers, and the benchmark ledger prints Domains() in its host
// line so a measurement names the machine it ran on.
//
// A Topology is immutable after construction.
type Topology struct {
	domains [][]int // CPU ids per domain, each non-empty
}

// sysfsNodeRoot is where linux exposes NUMA nodes.
const sysfsNodeRoot = "/sys/devices/system/node"

// DetectTopology describes the host from the linux sysfs node tree, or
// as a single domain covering DefaultThreads CPUs where that tree is
// missing or malformed. It never fails.
func DetectTopology() *Topology {
	if t, err := parseSysfsTopology(sysfsNodeRoot); err == nil {
		return t
	}
	return singleDomain(DefaultThreads())
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
	for _, id := range nodes {
		b, err := os.ReadFile(filepath.Join(root, fmt.Sprintf("node%d", id), "cpulist"))
		if err != nil {
			return nil, err
		}
		list := strings.TrimSpace(string(b))
		if list == "" {
			continue // memory-only node: no CPUs
		}
		cpus, err := parseCPUList(list)
		if err != nil {
			return nil, err
		}
		domains = append(domains, cpus)
	}
	return newTopology(domains)
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

// singleDomain is the non-NUMA fallback: one domain of n CPUs.
func singleDomain(n int) *Topology {
	if n < 1 {
		n = 1
	}
	cpus := make([]int, n)
	for i := range cpus {
		cpus[i] = i
	}
	return &Topology{domains: [][]int{cpus}}
}

// newTopology validates a domain list: at least one domain, and no CPU
// claimed by two domains.
func newTopology(domains [][]int) (*Topology, error) {
	if len(domains) == 0 {
		return nil, fmt.Errorf("parallel: topology has no domains")
	}
	seen := make(map[int]bool)
	for _, cpus := range domains {
		for _, c := range cpus {
			if seen[c] {
				return nil, fmt.Errorf("parallel: CPU %d in more than one topology domain", c)
			}
			seen[c] = true
		}
	}
	return &Topology{domains: domains}, nil
}

// Domains returns the number of NUMA domains.
func (t *Topology) Domains() int { return len(t.domains) }
