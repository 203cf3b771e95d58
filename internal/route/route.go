// Package route computes fabric routing tables.
//
// The paper keeps the network layer untouched ("Backwards compatibility -
// No restructuring of the network layer is needed"): hosts still hand
// frames to their local switch, and switches forward on destination. What
// the Closed Ring Control changes is the cost each link advertises — the
// per-link price tag — and this package turns those prices into next-hop
// tables. Routing is therefore plain weighted shortest path; adaptivity
// comes entirely from re-pricing and re-building, not from a new protocol.
//
// A Table stores only shortest-path distances and the edge-cost snapshot
// they were computed under. Next hops are derived on lookup: the edges
// incident to a node whose cost plus the far end's distance equals the
// node's own distance are its cost-tied (ECMP) next hops, in adjacency
// order. Rebuilds and repairs therefore touch one float per pair and no
// pointers, which is what makes re-pricing cheap at rack scale.
//
// Because ties are derived from the graph's adjacency at lookup time, a
// table describes exactly the graph it was built over: every graph
// mutation (topo.Graph.AddExpress, RemoveExpress) must be followed by a
// fresh Build before the next lookup. Cost changes on existing edges are
// the job of Repair and RepairBatch.
package route

import (
	"errors"
	"fmt"
	"math"

	"rackfab/internal/heapx"
	"rackfab/internal/topo"
)

// ErrUnreachable reports that no live path exists between two nodes — a
// genuine network condition (a partition after link or node failures), not
// a table bug. Callers distinguish it from table-inconsistency errors with
// errors.Is and decide policy: park the flow until a repair heals the
// partition, fail it, or surface the outage.
var ErrUnreachable = errors.New("route: destination unreachable")

// CostFunc prices one traversal of an edge. Costs must be positive and
// finite for usable edges; return +Inf to exclude an edge.
type CostFunc func(e *topo.Edge) float64

// UniformCost prices every live, administratively enabled edge at 1
// (minimum hop count). Disabled edges — the fault layer's link-down state —
// are excluded exactly like physically dead ones.
func UniformCost(e *topo.Edge) float64 {
	if !e.Enabled() || !e.Link.Up() {
		return math.Inf(1)
	}
	return 1
}

// eps is the tolerance of every tie test: an edge is on a shortest path
// when its cost plus the far end's distance matches the near end's
// distance to within eps.
const eps = 1e-9

// Table holds shortest-path distances for every (node, destination) pair
// over one graph. Distances are stored column-major — column dst is the
// contiguous slice dist[dst*n : dst*n+n] — so a column build writes one
// slice in place and a repair triage reads one. The ECMP tie set of a pair
// is never stored: lookups derive it from the column and the cost snapshot,
// in adjacency order. NextHop, Path and AppendPathLinks stop at the first
// tie; only NextHopECMP collects them all.
type Table struct {
	n      int
	g      *topo.Graph
	dist   []float64 // [dst*n+from] total path cost
	costOf []float64 // [edge index] cost snapshot of the last build/repair
}

// Build computes every destination column over the live graph: by BFS when
// every finite edge cost is equal, by Dijkstra otherwise. Edge costs are
// evaluated once up front: a cost function reads live link state, and one
// build must see a consistent snapshot of it anyway.
func Build(g *topo.Graph, cost CostFunc) *Table {
	n := g.NumNodes()
	t := &Table{n: n, g: g, dist: make([]float64, n*n), costOf: make([]float64, g.EdgeIndexBound())}
	for _, e := range g.Edges() {
		t.costOf[e.Index()] = checkedCost(cost, e)
	}
	b := t.newBuilder()
	for dst := 0; dst < n; dst++ {
		b.column(dst)
	}
	return t
}

func checkedCost(cost CostFunc, e *topo.Edge) float64 {
	c := cost(e)
	if !math.IsInf(c, 1) && c <= 0 {
		panic(fmt.Sprintf("route: non-positive edge cost %v on %d-%d", c, e.A, e.B))
	}
	return c
}

// Repair updates the table in place after exactly one edge's cost changed
// (a link failed, recovered, or was re-priced). It is RepairBatch with a
// one-edge batch; see there for the triage. Returns the number of
// destination columns rebuilt.
func (t *Table) Repair(g *topo.Graph, cost CostFunc, e *topo.Edge) int {
	return t.RepairBatch(g, cost, []*topo.Edge{e})
}

// RepairBatch applies several simultaneous edge-cost changes — one link, a
// node event's incident links, a multi-link pulse — re-building only the
// destination columns whose shortest-path distances can move. All cost
// snapshots move first; then every column is triaged once against every
// change using its current (pre-batch) distances, and each affected column
// rebuilds exactly once over the final costs. Per column and change the
// triage is O(1) and has three outcomes:
//
//   - none: the edge was not on the column's shortest-path DAG and the new
//     cost creates no strictly shorter path. A decrease landing exactly on
//     the shortest cost only adds a tie, which lookups derive by
//     themselves.
//   - tie lost: the edge was on the DAG and got dearer (or died). The
//     distances survive iff its far endpoint keeps a cost-tied next hop
//     under the final costs; only if none is left does the column rebuild.
//   - full: distances can move (a cheaper edge on the DAG, a strictly
//     shorter path, reachability restored) — the column rebuilds.
//
// On fabrics with equal-cost path diversity (tori, wide grids) most
// affected columns only lose a tie, cutting a repair from ~k column builds
// to k O(degree) checks.
//
// The result is bit-identical to a fresh Build, and to calling Repair once
// per edge in any order. Sketch: if no column is flagged, the pre-batch
// distances satisfy the shortest-path equations under the final costs —
// every reachable node keeps a tie and no edge undercuts a distance — and
// a flagged column is rebuilt from scratch. A lost tie can only move a
// distance if every tie of some node died, and the lowest such node is the
// far endpoint of one of the changed edges, which the tie-lost check
// inspects. g must be the graph the table was built over. Returns the
// number of destination columns rebuilt — at most once each, so the count
// can undercut the sequential sum.
func (t *Table) RepairBatch(g *topo.Graph, cost CostFunc, edges []*topo.Edge) int {
	if g != t.g {
		panic("route: repair on a graph other than the table's")
	}
	if cost == nil {
		cost = UniformCost
	}
	changes := make([]change, 0, len(edges))
	for _, e := range edges {
		c1 := checkedCost(cost, e)
		c0 := t.costOf[e.Index()]
		if c1 == c0 {
			continue // also drops duplicate edges: the second sees c0 == c1
		}
		t.costOf[e.Index()] = c1
		changes = append(changes, change{a: int(e.A), b: int(e.B), c0: c0, c1: c1})
	}
	if len(changes) == 0 {
		return 0
	}
	var b *colBuilder
	rebuilt := 0
	for dst := 0; dst < t.n; dst++ {
		if t.columnMoves(dst, changes) {
			if b == nil {
				b = t.newBuilder()
			}
			b.column(dst)
			rebuilt++
		}
	}
	return rebuilt
}

// change is one edge-cost move of a repair batch.
type change struct {
	a, b   int
	c0, c1 float64
}

// columnMoves is the repair triage of destination column dst: can any of
// the changes move its distances? It reads the column's current distances
// and the final cost snapshot.
func (t *Table) columnMoves(dst int, changes []change) bool {
	col := t.column(dst)
	for _, ch := range changes {
		da, db := col[ch.a], col[ch.b]
		if !math.IsInf(ch.c0, 1) && !math.IsInf(da, 1) && !math.IsInf(db, 1) {
			gap, hi := da-db, ch.a
			if gap < 0 {
				gap, hi = -gap, ch.b
			}
			if math.Abs(gap-ch.c0) < eps { // the edge was on dst's shortest-path DAG
				if ch.c1 < ch.c0 {
					return true
				}
				if _, ok := t.firstTie(col, topo.NodeID(hi)); !ok {
					return true
				}
				continue
			}
		}
		if !math.IsInf(ch.c1, 1) {
			lo, hi := math.Min(da, db), math.Max(da, db)
			// hi may be +Inf (connectivity restored): strictly shorter.
			if !math.IsInf(lo, 1) && ch.c1+lo < hi-eps {
				return true
			}
		}
	}
	return false
}

// firstTie returns from's first cost-tied next hop in column col under the
// current cost snapshot, in adjacency order. It is the one tie every
// deterministic lookup takes: NextHop, Path and AppendPathLinks.
func (t *Table) firstTie(col []float64, from topo.NodeID) (*topo.Edge, bool) {
	for _, e := range t.g.Adjacent(from) {
		if t.tied(col, from, e) {
			return e, true
		}
	}
	return nil, false
}

// tied reports whether e, leaving from, starts a shortest path in column
// col. Edges added to the graph after the last build have no snapshot cost
// and are never tied.
func (t *Table) tied(col []float64, from topo.NodeID, e *topo.Edge) bool {
	i := e.Index()
	if i >= len(t.costOf) {
		return false
	}
	c := t.costOf[i]
	return !math.IsInf(c, 1) && math.Abs(c+col[e.Other(from)]-col[from]) < eps
}

func (t *Table) column(dst int) []float64 {
	return t.dist[dst*t.n : (dst+1)*t.n]
}

// colBuilder is working memory reused across the column builds of one
// Build or repair. The Dijkstra frontier is a heapx heap rather than
// container/heap: the interface{} boxing there allocated on every push.
type colBuilder struct {
	t       *Table
	uniform bool          // every finite edge cost is equal: build by BFS
	queue   []topo.NodeID // BFS queue, flat and reused
	pq      heapx.Heap[nodeDist]
}

func (t *Table) newBuilder() *colBuilder {
	return &colBuilder{t: t, uniform: t.uniformCosts()}
}

// uniformCosts reports whether every finite cost in the snapshot is equal.
// BFS then computes each distance as its parent's plus that cost — the same
// float sums, hence the same bits, as Dijkstra.
func (t *Table) uniformCosts() bool {
	first := math.Inf(1)
	for _, e := range t.g.Edges() {
		c := t.costOf[e.Index()]
		if math.IsInf(c, 1) {
			continue
		}
		if math.IsInf(first, 1) {
			first = c
		} else if c != first {
			return false
		}
	}
	return true
}

// column recomputes destination column dst in place over the current cost
// snapshot.
func (b *colBuilder) column(dst int) {
	col := b.t.column(dst)
	for i := range col {
		col[i] = math.Inf(1)
	}
	col[dst] = 0
	if b.uniform {
		b.bfs(col, topo.NodeID(dst))
	} else {
		b.dijkstra(col, topo.NodeID(dst))
	}
}

func (b *colBuilder) bfs(col []float64, dst topo.NodeID) {
	g, costOf := b.t.g, b.t.costOf
	q := append(b.queue[:0], dst)
	for head := 0; head < len(q); head++ {
		cur := q[head]
		for _, e := range g.Adjacent(cur) {
			c := costOf[e.Index()]
			if math.IsInf(c, 1) {
				continue
			}
			if next := e.Other(cur); math.IsInf(col[next], 1) {
				col[next] = col[cur] + c
				q = append(q, next)
			}
		}
	}
	b.queue = q
}

func (b *colBuilder) dijkstra(col []float64, dst topo.NodeID) {
	g, costOf := b.t.g, b.t.costOf
	pq := &b.pq
	pq.Reset()
	pq.Push(nodeDist{node: dst, dist: 0})
	for pq.Len() > 0 {
		cur := pq.Pop()
		if cur.dist > col[cur.node] {
			continue // stale entry
		}
		for _, e := range g.Adjacent(cur.node) {
			c := costOf[e.Index()]
			if math.IsInf(c, 1) {
				continue
			}
			next := e.Other(cur.node)
			if nd := cur.dist + c; nd < col[next] {
				col[next] = nd
				pq.Push(nodeDist{node: next, dist: nd})
			}
		}
	}
}

// NextHop returns the deterministic best next-hop edge from from toward to:
// the first cost-tied edge in adjacency order. ok is false for
// self-delivery or unreachable destinations — including pairs partitioned
// by a failure and repaired into the table afterwards.
func (t *Table) NextHop(from, to topo.NodeID) (*topo.Edge, bool) {
	col := t.column(int(to))
	if from == to || math.IsInf(col[from], 1) {
		return nil, false
	}
	return t.firstTie(col, from)
}

// NextHopECMP hash-spreads over all cost-tied next hops so distinct flows
// between the same pair take distinct equal-cost paths: it returns tie
// number flowHash mod (tie count), ties counted in adjacency order.
func (t *Table) NextHopECMP(from, to topo.NodeID, flowHash uint64) (*topo.Edge, bool) {
	col := t.column(int(to))
	if from == to || math.IsInf(col[from], 1) {
		return nil, false
	}
	var buf [8]*topo.Edge // fabric degrees fit; larger ones spill to the heap
	ties := buf[:0]
	for _, e := range t.g.Adjacent(from) {
		if t.tied(col, from, e) {
			ties = append(ties, e)
		}
	}
	if len(ties) == 0 {
		return nil, false
	}
	return ties[flowHash%uint64(len(ties))], true
}

// Distance returns the total path cost from from to to (+Inf when
// unreachable, 0 for self).
func (t *Table) Distance(from, to topo.NodeID) float64 {
	return t.dist[int(to)*t.n+int(from)]
}

// Reachable reports whether to can be reached from from.
func (t *Table) Reachable(from, to topo.NodeID) bool {
	return !math.IsInf(t.Distance(from, to), 1)
}

// Path materializes the primary path (NextHop's first tie at every hop)
// as an edge list. An unreachable destination — a genuine partition —
// returns an error wrapping ErrUnreachable (never a zero-value path); any
// other error means the table is inconsistent (a missing next hop or a
// routing loop), which would indicate a build bug rather than a network
// condition. Self-delivery is the nil path.
func (t *Table) Path(from, to topo.NodeID) ([]*topo.Edge, error) {
	var path []*topo.Edge
	if err := t.walk(from, to, func(e *topo.Edge) { path = append(path, e) }); err != nil {
		return nil, err
	}
	return path, nil
}

// AppendPathLinks appends the stable link IDs (topo Edge.Index) of Path's
// path to buf and returns the extended slice, with Path's errors. On error,
// and for self-delivery, buf comes back unchanged. With enough capacity in
// buf the walk allocates nothing, which is what lets the fluid engine route
// every flow into one reused scratch buffer.
func (t *Table) AppendPathLinks(buf []int32, from, to topo.NodeID) ([]int32, error) {
	n0 := len(buf)
	if err := t.walk(from, to, func(e *topo.Edge) { buf = append(buf, int32(e.Index())) }); err != nil {
		return buf[:n0], err
	}
	return buf, nil
}

// walk follows the first cost-tied next hop from from to to, handing each
// edge to hop in path order.
func (t *Table) walk(from, to topo.NodeID, hop func(*topo.Edge)) error {
	if from == to {
		return nil
	}
	col := t.column(int(to))
	if math.IsInf(col[from], 1) {
		return fmt.Errorf("route: %d→%d: %w", from, to, ErrUnreachable)
	}
	for cur, hops := from, 0; cur != to; {
		e, ok := t.firstTie(col, cur)
		if !ok {
			return fmt.Errorf("route: no next hop from %d to %d", cur, to)
		}
		hop(e)
		cur = e.Other(cur)
		if hops++; hops > t.n {
			return fmt.Errorf("route: loop routing %d→%d", from, to)
		}
	}
	return nil
}

// nodeDist is a priority-queue entry.
type nodeDist struct {
	node topo.NodeID
	dist float64
}

// Before orders the Dijkstra frontier by tentative distance. Stale entries
// make exact ties harmless here: both pop, the second is skipped.
func (d nodeDist) Before(other nodeDist) bool { return d.dist < other.dist }
