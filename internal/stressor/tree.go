package stressor

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Checkpoint trees + convergence early-exit: the generalization of the
// single-checkpoint session of checkpoint.go. A tree session retains a
// budgeted set of golden-prefix snapshots ("nodes"), one per injection
// instant it has visited, and establishes each scenario from the
// deepest retained node at or before its fork time — so a campaign
// whose fork times regress (StopOnFirst index order, daemon sessions
// parked across campaigns, resumed tails) forks from the deepest
// shared prefix instead of re-simulating from time zero. Convergence
// early-exit layers on top: the golden trajectory is hashed at a fixed
// stride, and a faulty run whose post-injection state hash returns to
// the golden trajectory stops simulating immediately and inherits the
// golden-equal classification — byte-identical to running it out.

// Default tree budgets, applied when TreeConfig leaves them zero.
const (
	// DefaultTreeMaxNodes bounds the retained snapshots per session.
	DefaultTreeMaxNodes = 32
	// DefaultTreeMaxBytes bounds the kernel-side bytes those snapshots
	// retain (model-state captures are not counted; see
	// Checkpoint.ApproxBytes).
	DefaultTreeMaxBytes = 16 << 20
)

// TreeConfig parameterizes a checkpoint-tree session.
type TreeConfig struct {
	// MaxNodes is the LRU depth budget on retained tree nodes
	// (0 selects DefaultTreeMaxNodes). A single-node tree degenerates
	// to the plain CheckpointSession behavior.
	MaxNodes int
	// MaxBytes is the byte budget on retained kernel snapshots
	// (0 selects DefaultTreeMaxBytes).
	MaxBytes int
	// EarlyExit enables convergence detection against the golden
	// trajectory.
	EarlyExit bool
	// HashStride is the trajectory hashing interval (0 lets the runner
	// derive one from its horizon, typically horizon/16).
	HashStride sim.Time
	// Metrics, when non-nil, receives tree/early-exit counters labeled
	// with Campaign. The campaign Result is identical without it.
	Metrics *obs.Registry
	// Campaign labels the counters.
	Campaign string
}

// withDefaults fills the budget defaults.
func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxNodes <= 0 {
		c.MaxNodes = DefaultTreeMaxNodes
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultTreeMaxBytes
	}
	return c
}

// TreeCheckpointer is implemented by runners that support checkpoint
// trees (and convergence early-exit) on top of the plain Checkpointer
// contract. NewTreeSession is NewSession with a tree configuration;
// the returned session should also implement RecyclableSession so the
// campaign can reclaim its node buffers after abandonment.
type TreeCheckpointer interface {
	Checkpointer
	NewTreeSession(cfg TreeConfig) CheckpointSession
}

// RecyclableSession is a CheckpointSession whose retained node buffers
// can be returned to the runner's shared pool without closing the
// session. The campaign calls Recycle exactly once for a session it
// abandoned (after the runaway run has finished, so no goroutine still
// touches the buffers) — abandoned sessions are still never Closed.
type RecyclableSession interface {
	CheckpointSession
	Recycle()
}

// TreeNode is one retained golden-prefix snapshot: the kernel
// checkpoint and the paired model-state capture at fork-1.
type TreeNode struct {
	fork sim.Time
	tick uint64
	cp   sim.Checkpoint
	mst  any
}

// NodePool is a runner-level free list of tree nodes, shared by every
// session of that runner so node buffers survive session abandonment,
// Close and cross-campaign daemon reuse. SnapshotInto and
// SnapshotStateInto fully overwrite a node's buffers, so recycling
// them across kernels is safe.
type NodePool struct {
	mu   sync.Mutex
	free []*TreeNode
	live int
}

// Get takes a node from the pool (allocating when empty).
func (p *NodePool) Get() *TreeNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live++
	if n := len(p.free); n > 0 {
		nd := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return nd
	}
	return &TreeNode{}
}

// Put returns a node's buffers to the pool.
func (p *NodePool) Put(nd *TreeNode) {
	if nd == nil {
		return
	}
	nd.fork, nd.tick = 0, 0
	p.mu.Lock()
	p.live--
	p.free = append(p.free, nd)
	p.mu.Unlock()
}

// Live reports how many nodes are currently checked out — the
// leak-detection hook for engine lifecycle tests.
func (p *NodePool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// TreeCore is the prototype-agnostic heart of a tree session. The
// hosting session (caps, ecu) supplies the kernel, the model's
// Snapshottable hooks and a Rebuild closure that returns both to their
// pristine time-zero state; TreeCore owns node retention, restore
// dispatch, the LRU budget and the counters.
type TreeCore struct {
	Cfg   TreeConfig
	K     *sim.Kernel
	Model sim.Snapshottable
	// Rebuild returns kernel and model to pristine time zero (Reset +
	// Rearm + run-phase elaboration). It invalidates every retained
	// node — Establish recycles them first.
	Rebuild func()
	// Pool is the runner-shared node free list (required).
	Pool *NodePool

	nodes  []*TreeNode // sorted by fork, ascending
	tick   uint64
	virgin bool // kernel freshly built, pristine at time zero
	dirty  bool // a run advanced past the last established instant
	cur    sim.Time

	hits, extends, rebuilds, evictions *obs.Counter
	earlyExits, savedNs                *obs.Counter
	nodesGauge                         *obs.Gauge
}

// Init finalizes the core after the host built its kernel and model.
func (t *TreeCore) Init() {
	t.Cfg = t.Cfg.withDefaults()
	t.virgin = true
	t.dirty = true
	if m := t.Cfg.Metrics; m != nil {
		l := obs.L("campaign", t.Cfg.Campaign)
		t.hits = m.Counter("campaign.tree_hits", l)
		t.extends = m.Counter("campaign.tree_extends", l)
		t.rebuilds = m.Counter("campaign.tree_rebuilds", l)
		t.evictions = m.Counter("campaign.tree_evictions", l)
		t.earlyExits = m.Counter("campaign.early_exits", l)
		t.savedNs = m.Counter("campaign.early_exit_saved_sim_ns", l)
		t.nodesGauge = m.Gauge("campaign.tree_nodes", l)
	}
}

// Nodes reports the retained node count (tests).
func (t *TreeCore) Nodes() int { return len(t.nodes) }

// MarkDirty records that the hosting session is about to run the
// kernel past the established instant.
func (t *TreeCore) MarkDirty() { t.dirty = true }

// Establish leaves kernel and model in the golden state at simulated
// time fork-1, with a node at fork retained for the next scenario.
// Cheapest case first: an exact-fork node is restored (or nothing
// happens if the kernel still sits there untouched); otherwise the
// deepest node before fork is restored and the golden run extended
// forward; with no usable node the prefix is rebuilt from time zero —
// which Resets the kernel and therefore recycles every retained node.
func (t *TreeCore) Establish(fork sim.Time) error {
	if !t.dirty && t.cur == fork {
		return nil
	}
	if nd := t.lookup(fork); nd != nil {
		if err := t.restore(nd); err != nil {
			return err
		}
		t.touch(nd)
		t.count(t.hits)
		t.cur, t.dirty = fork, false
		return nil
	}
	if nd := t.deepestBefore(fork); nd != nil {
		if err := t.restore(nd); err != nil {
			return err
		}
		t.touch(nd)
		t.count(t.extends)
	} else {
		// No retained prefix at or before fork: rebuild from zero. A
		// fresh kernel is already pristine; Rebuild Resets otherwise,
		// invalidating the whole tree.
		if !t.virgin {
			t.recycleAll()
			t.Rebuild()
		}
		t.count(t.rebuilds)
	}
	t.virgin = false
	if err := t.K.RunUntil(fork - 1); err != nil {
		return err
	}
	nd := t.Pool.Get()
	if err := t.K.SnapshotInto(&nd.cp); err != nil {
		t.Pool.Put(nd)
		return err
	}
	nd.mst = sim.SnapshotModelState(t.Model, nd.mst)
	nd.fork = fork
	t.insert(nd)
	t.touch(nd)
	t.evict()
	t.cur, t.dirty = fork, false
	if t.nodesGauge != nil {
		t.nodesGauge.Set(float64(len(t.nodes)))
	}
	return nil
}

// NoteEarlyExit records one converged run that skipped saved simulated
// time.
func (t *TreeCore) NoteEarlyExit(saved sim.Time) {
	if t.earlyExits != nil {
		t.earlyExits.Inc()
		t.savedNs.Add(uint64(saved))
	}
}

// Recycle implements the RecyclableSession half of the hosting
// session: every retained node goes back to the runner pool. Safe
// after abandonment — node buffers are fully overwritten on reuse.
func (t *TreeCore) Recycle() { t.recycleAll() }

func (t *TreeCore) restore(nd *TreeNode) error {
	if err := t.K.Restore(&nd.cp); err != nil {
		return err
	}
	t.Model.RestoreState(nd.mst)
	return nil
}

func (t *TreeCore) lookup(fork sim.Time) *TreeNode {
	for _, nd := range t.nodes {
		if nd.fork == fork {
			return nd
		}
	}
	return nil
}

func (t *TreeCore) deepestBefore(fork sim.Time) *TreeNode {
	var best *TreeNode
	for _, nd := range t.nodes {
		if nd.fork < fork {
			best = nd // nodes sorted ascending
		}
	}
	return best
}

func (t *TreeCore) insert(nd *TreeNode) {
	i := len(t.nodes)
	t.nodes = append(t.nodes, nd)
	for i > 0 && t.nodes[i-1].fork > nd.fork {
		t.nodes[i] = t.nodes[i-1]
		i--
	}
	t.nodes[i] = nd
}

func (t *TreeCore) touch(nd *TreeNode) {
	t.tick++
	nd.tick = t.tick
}

// evict enforces the node-count and byte budgets, dropping the least
// recently used nodes first (never the one just touched).
func (t *TreeCore) evict() {
	for len(t.nodes) > 1 {
		over := len(t.nodes) > t.Cfg.MaxNodes
		if !over {
			bytes := 0
			for _, nd := range t.nodes {
				bytes += nd.cp.ApproxBytes()
			}
			over = bytes > t.Cfg.MaxBytes
		}
		if !over {
			return
		}
		lru := 0
		for i, nd := range t.nodes {
			if nd.tick < t.nodes[lru].tick {
				lru = i
			}
		}
		if t.nodes[lru].tick == t.tick {
			return // everything else already evicted
		}
		nd := t.nodes[lru]
		copy(t.nodes[lru:], t.nodes[lru+1:])
		t.nodes[len(t.nodes)-1] = nil
		t.nodes = t.nodes[:len(t.nodes)-1]
		t.Pool.Put(nd)
		t.count(t.evictions)
	}
}

func (t *TreeCore) recycleAll() {
	for i, nd := range t.nodes {
		t.Pool.Put(nd)
		t.nodes[i] = nil
	}
	t.nodes = t.nodes[:0]
	t.dirty = true
	if t.nodesGauge != nil {
		t.nodesGauge.Set(0)
	}
}

func (t *TreeCore) count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// GoldenTrajectory is the golden run's incremental state-hash stream:
// Hashes[i] is the digest of model + scheduler state after running to
// (i+1)*Stride, for every stride instant strictly before Horizon. The
// digests are derived from the Snapshottable/Hashable capture — no
// full snapshots are taken.
type GoldenTrajectory struct {
	Stride  sim.Time
	Horizon sim.Time
	// NEvents/NProcs are the golden elaboration's object counts; live
	// runs restrict their scheduler hash to this prefix so the
	// stressor's own event/process (elaborated after the model) never
	// enters the digest.
	NEvents, NProcs int
	Hashes          []uint64
}

// RecordTrajectory runs a freshly elaborated golden kernel (no
// stressor) to horizon in stride chunks, recording the state digest at
// each stride instant. Chunked RunUntil is observationally identical
// to one full run, so the recorded digests are exactly what a faulty
// run's model would hash to at those instants had the fault never
// perturbed anything.
func RecordTrajectory(k *sim.Kernel, m sim.Hashable, stride, horizon sim.Time) (*GoldenTrajectory, error) {
	return RecordTrajectoryFunc(k, m, stride, horizon, nil)
}

// RecordTrajectoryFunc is RecordTrajectory with a per-stride hook:
// onStride is called with the kernel standing at each recorded stride
// instant (index i, time (i+1)*stride), letting the caller capture
// model-specific sidecar state alongside the digest — e.g. the golden
// output-history lengths an early-exited run splices its composite
// observation at.
func RecordTrajectoryFunc(k *sim.Kernel, m sim.Hashable, stride, horizon sim.Time, onStride func(i int, t sim.Time)) (*GoldenTrajectory, error) {
	stride = NormalizeStride(stride, horizon)
	tr := &GoldenTrajectory{Stride: stride, Horizon: horizon}
	tr.NEvents, tr.NProcs = k.Elaborated()
	for t := stride; t < horizon; t += stride {
		if err := k.RunUntil(t); err != nil {
			return nil, err
		}
		if onStride != nil {
			onStride(len(tr.Hashes), t)
		}
		tr.Hashes = append(tr.Hashes, tr.digest(k, m))
	}
	return tr, nil
}

// NormalizeStride resolves the default trajectory stride — horizon/16,
// minimum one time unit. Runners key their trajectory caches by the
// normalized value.
func NormalizeStride(stride, horizon sim.Time) sim.Time {
	if stride <= 0 {
		stride = horizon / 16
	}
	if stride <= 0 {
		stride = 1
	}
	return stride
}

// Divergent is an optional extension of sim.Hashable for models with
// monotone latches — a fired safety mechanism, an error counter — that
// the golden run never sets: NeverConverges reports that one is set,
// so no later digest can match the golden trajectory and
// GoldenTrajectory.RunToHorizon stops comparing.
type Divergent interface {
	NeverConverges() bool
}

// digest folds scheduler + model state into one hash value.
func (tr *GoldenTrajectory) digest(k *sim.Kernel, m sim.Hashable) uint64 {
	h := sim.NewStateHash()
	k.HashScheduler(&h, tr.NEvents, tr.NProcs)
	m.HashState(&h)
	return h.Sum()
}

// RunToHorizon advances an injected run from its current time to the
// horizon in trajectory-stride chunks, checking for convergence at
// each stride instant once the stressor has performed every scheduled
// action (a pending revert or intermittent pulse could still push the
// run off the golden trajectory, so earlier instants are not
// compared). On a digest match the run terminates immediately:
// converged state plus an empty remaining stressor timeline implies
// the suffix is byte-identical to the golden run's, so the final
// observation is the golden one. Runs whose injections errored never
// converge here — their campaign-error outcome requires the full path.
//
// A run stops comparing and runs straight to the horizon once it can
// no longer converge: when it misses at a stride with its kernel fully
// idle (nothing runnable, nothing notified, so its state is frozen),
// or when the model implements Divergent and reports a latch the
// golden run never sets. Skipping a comparison can only forgo an early
// exit, never change an outcome, and it spares runs that settle or
// latch early one digest per remaining stride.
func (tr *GoldenTrajectory) RunToHorizon(k *sim.Kernel, m sim.Hashable, st *Stressor) (converged bool, at sim.Time, err error) {
	div, _ := m.(Divergent)
	now := k.Now()
	checkable := true
	checked := false
	for i := range tr.Hashes {
		t := sim.Time(i+1) * tr.Stride
		if t <= now {
			continue
		}
		if err := k.RunUntil(t); err != nil {
			return false, 0, err
		}
		if !st.Finished() || !checkable {
			continue
		}
		if !checked {
			checked = true
			if len(st.InjectionErrors()) > 0 {
				checkable = false
				continue
			}
		}
		if div != nil && div.NeverConverges() {
			break
		}
		if tr.digest(k, m) == tr.Hashes[i] {
			return true, t, nil
		}
		if !k.Pending() {
			break
		}
	}
	if err := k.RunUntil(tr.Horizon); err != nil {
		return false, 0, err
	}
	return false, 0, nil
}
