package parallel

// Workspace is a reusable set of per-worker scratch arenas plus cached
// kernel state ("frames"). Kernels acquire a workspace from a pool at entry
// and release it on exit; the free-list hands the same workspace back on
// the next call, so a steady stream of same-shaped kernel invocations
// allocates nothing after warmup — the goroutine analogue of OpenMP
// threadprivate buffers that live for the whole program.
//
// A workspace is owned by exactly one computation at a time. During a
// dispatch, arena w may be touched only by worker w (the dispatch barrier
// orders those accesses against the coordinator's).
type Workspace struct {
	pool   *Pool
	key    string // free list this workspace returns to ("" = general)
	arenas []*Arena
	plan   *Arena // dedicated slot for batch-scoped shared state (PlanArena)
	frames map[string]any
}

// Acquire returns a workspace from the pool's general free-list, or a
// fresh one if none is available. Pair it with Release.
func (p *Pool) Acquire() *Workspace {
	return p.AcquireKeyed("")
}

// AcquireKeyed returns a workspace from the free list dedicated to key
// ("" selects the pool's general list). Keyed lists are the
// cross-request workspace cache of shape-batched serving: every request
// acquired under one shape key gets a workspace whose buffers and kernel
// frames were warmed by previous same-shape requests, regardless of which
// lease or goroutine executes it. Release returns the workspace to its
// key's list.
func (p *Pool) AcquireKeyed(key string) *Workspace {
	p.wsMu.Lock()
	list := p.free
	if key != "" {
		list = p.keyed[key]
	}
	if n := len(list); n > 0 {
		ws := list[n-1]
		list[n-1] = nil
		if key == "" {
			p.free = list[:n-1]
		} else {
			p.keyed[key] = list[:n-1]
		}
		p.wsMu.Unlock()
		return ws
	}
	p.wsMu.Unlock()
	return &Workspace{pool: p, key: key, frames: make(map[string]any)}
}

// maxKeyedShapes bounds the number of distinct shape keys a pool caches
// workspaces for. A long-lived server sees an open-ended stream of shapes;
// without a cap, every shape ever served would pin a fully-sized arena set
// until Close. Releases under keys beyond the cap simply drop the
// workspace (the next acquisition for that key starts cold), so hot shapes
// stay warm and cold shapes cost nothing persistent.
const maxKeyedShapes = 32

// Release returns the workspace to its pool (and its shape key's list) for
// reuse. The caller must not touch the workspace (or any buffer obtained
// from it) afterwards.
func (ws *Workspace) Release() {
	p := ws.pool
	p.wsMu.Lock()
	switch {
	case ws.key == "":
		p.free = append(p.free, ws)
	case p.keyed == nil:
		p.keyed = map[string][]*Workspace{ws.key: {ws}}
	default:
		if _, ok := p.keyed[ws.key]; ok || len(p.keyed) < maxKeyedShapes {
			p.keyed[ws.key] = append(p.keyed[ws.key], ws)
		}
		// else: cap reached for new keys — let the GC take this one.
	}
	p.wsMu.Unlock()
}

// Arena returns worker w's scratch arena, creating arenas on demand.
func (ws *Workspace) Arena(w int) *Arena {
	for len(ws.arenas) <= w {
		ws.arenas = append(ws.arenas, &Arena{})
	}
	return ws.arenas[w]
}

// PlanArena returns the workspace's dedicated plan arena: a scratch slot
// for batch-scoped shared state — the serving layer's fused KRP plans —
// that must stay live across several kernel invocations on the same
// workspace. It is distinct from every worker arena, so nothing a kernel
// leases per-dispatch can alias it; like the worker arenas, its buffers
// grow monotonically and are reused, so a shape-keyed workspace serves a
// steady stream of same-shape batches with zero allocations.
func (ws *Workspace) PlanArena() *Arena {
	if ws.plan == nil {
		ws.plan = &Arena{}
	}
	return ws.plan
}

// Frame returns the cached kernel state registered under key, building it
// with build on first use. Kernels store their per-call parameter blocks
// and pre-bound worker closures in frames so repeated dispatches reuse one
// heap object instead of allocating closures per call.
func (ws *Workspace) Frame(key string, build func() any) any {
	f, ok := ws.frames[key]
	if !ok {
		f = build()
		ws.frames[key] = f
	}
	return f
}

// Arena is one worker's tag-addressed scratch allocator. Buffers are keyed
// by purpose tag and grow monotonically, so repeated same-shape kernel
// calls always get the same backing memory back. Returned buffers contain
// whatever the previous use left in them; callers that need zeroed memory
// must clear them.
type Arena struct {
	f64  map[string][]float64
	ints map[string][]int
}

// Float64 returns a length-n float64 scratch slice for tag, reusing (and if
// needed growing) the slice previously returned for the same tag.
//
//mttkrp:noalloc
func (a *Arena) Float64(tag string, n int) []float64 {
	if a.f64 == nil {
		//lint:ignore mttkrp/noalloc one-time map init; amortized away after first use
		a.f64 = make(map[string][]float64)
	}
	s := a.f64[tag]
	if cap(s) < n {
		//lint:ignore mttkrp/noalloc cold-path growth; steady state reuses the grown slice
		s = make([]float64, n)
		a.f64[tag] = s
	}
	return s[:n:n]
}

// Ints returns a length-n int scratch slice for tag, with the same reuse
// contract as Float64.
//
//mttkrp:noalloc
func (a *Arena) Ints(tag string, n int) []int {
	if a.ints == nil {
		//lint:ignore mttkrp/noalloc one-time map init; amortized away after first use
		a.ints = make(map[string][]int)
	}
	s := a.ints[tag]
	if cap(s) < n {
		//lint:ignore mttkrp/noalloc cold-path growth; steady state reuses the grown slice
		s = make([]int, n)
		a.ints[tag] = s
	}
	return s[:n:n]
}
