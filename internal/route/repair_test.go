package route

import (
	"errors"
	"math"
	"testing"

	"rackfab/internal/phy"
	"rackfab/internal/sim"
	"rackfab/internal/topo"
)

// tieList returns the ECMP tie set of from→dst in hash order, read through
// the public NextHopECMP: ties are distinct edges and hash h picks tie
// h mod count, so the hash sequence first repeats its hop-0 edge exactly at
// the tie count. A sequence that never repeats within the node's degree
// fails the test.
func tieList(t *testing.T, g *topo.Graph, tab *Table, from, dst topo.NodeID) []*topo.Edge {
	t.Helper()
	first, ok := tab.NextHopECMP(from, dst, 0)
	if !ok {
		return nil
	}
	ties := []*topo.Edge{first}
	for h := uint64(1); h <= uint64(len(g.Adjacent(from))); h++ {
		e, ok := tab.NextHopECMP(from, dst, h)
		if !ok {
			t.Fatalf("NextHopECMP %d→%d: hash %d found no hop, hash 0 did", from, dst, h)
		}
		if e == first {
			return ties
		}
		ties = append(ties, e)
	}
	t.Fatalf("NextHopECMP %d→%d: tie sequence never repeats", from, dst)
	return nil
}

// tablesEqual asserts got routes identically to want: same distances, same
// primary next hops, same ECMP tie lists in the same order.
func tablesEqual(t *testing.T, label string, want, got *Table) {
	t.Helper()
	if want.n != got.n {
		t.Fatalf("%s: n %d vs %d", label, want.n, got.n)
	}
	for from := topo.NodeID(0); int(from) < want.n; from++ {
		for dst := topo.NodeID(0); int(dst) < want.n; dst++ {
			dw, dg := want.Distance(from, dst), got.Distance(from, dst)
			if dw != dg && !(math.IsInf(dw, 1) && math.IsInf(dg, 1)) {
				t.Fatalf("%s: dist %d→%d = %v, want %v", label, from, dst, dg, dw)
			}
			pw, _ := want.NextHop(from, dst)
			pg, _ := got.NextHop(from, dst)
			if pw != pg {
				t.Fatalf("%s: primary %d→%d = %v, want %v", label, from, dst, pg, pw)
			}
			tw, tg := tieList(t, want.g, want, from, dst), tieList(t, got.g, got, from, dst)
			if len(tw) != len(tg) {
				t.Fatalf("%s: ecmp count %d→%d = %d, want %d", label, from, dst, len(tg), len(tw))
			}
			for k := range tw {
				if tw[k] != tg[k] {
					t.Fatalf("%s: ecmp[%d] %d→%d = %v, want %v", label, k, from, dst, tg[k], tw[k])
				}
			}
		}
	}
}

// TestRepairMatchesFullBuild drives a table through a deterministic
// disable/enable churn on three fabric shapes and, after every Repair,
// demands the repaired table be indistinguishable from a from-scratch
// Build over the same live topology — distances, primaries, and full ECMP
// sets. This is the incremental-repair correctness gate.
func TestRepairMatchesFullBuild(t *testing.T) {
	shapes := []struct {
		name string
		g    *topo.Graph
	}{
		{"grid", topo.NewGrid(5, 4, topo.Options{})},
		{"torus", topo.NewTorus(4, 4, topo.Options{})},
		{"line", topo.NewLine(9, topo.Options{})},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			g := sh.g
			tab := Build(g, UniformCost)
			rng := sim.NewRNG(int64(len(sh.name)))
			edges := g.Edges()
			rebuiltTotal := 0
			for step := 0; step < 30; step++ {
				e := edges[rng.Intn(len(edges))]
				e.SetEnabled(!e.Enabled()) // toggle: downs and restores interleave
				rebuiltTotal += tab.Repair(g, UniformCost, e)
				tablesEqual(t, sh.name, Build(g, UniformCost), tab)
			}
			if rebuiltTotal == 0 {
				t.Fatal("repair churn rebuilt nothing — the triage test is inert")
			}
			for _, e := range edges {
				e.SetEnabled(true)
			}
		})
	}
}

// TestRepairNoopOnUnchangedCost: repairing an edge whose cost did not move
// rebuilds nothing.
func TestRepairNoopOnUnchangedCost(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	if n := tab.Repair(g, UniformCost, g.Edges()[3]); n != 0 {
		t.Fatalf("no-op repair rebuilt %d columns", n)
	}
}

// TestPathUnreachableTyped is the partition regression: after a cut splits
// a 4×4 grid, Path across the cut must return the typed ErrUnreachable —
// never a zero-value path — NextHop must report no hop (no stale
// pre-failure edge), and healing the cut must restore both. Exercised
// through Repair, the path the fault subsystem takes.
func TestPathUnreachableTyped(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	// Cut every edge between column 1 and column 2.
	var cut []*topo.Edge
	for y := 0; y < 4; y++ {
		e, ok := g.EdgeBetween(g.NodeAt(1, y), g.NodeAt(2, y))
		if !ok {
			t.Fatalf("missing edge at row %d", y)
		}
		cut = append(cut, e)
	}
	for _, e := range cut {
		e.SetEnabled(false)
		tab.Repair(g, UniformCost, e)
	}
	src, dst := g.NodeAt(0, 0), g.NodeAt(3, 3)
	p, err := tab.Path(src, dst)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Path across the partition: path=%v err=%v, want ErrUnreachable", p, err)
	}
	if p != nil {
		t.Fatalf("Path returned a non-nil path %v alongside the error", p)
	}
	if hop, ok := tab.NextHop(src, dst); ok {
		t.Fatalf("NextHop across the partition returned stale edge %v-%v", hop.A, hop.B)
	}
	if _, ok := tab.NextHopECMP(src, dst, 12345); ok {
		t.Fatal("NextHopECMP across the partition returned a hop")
	}
	if tab.Reachable(src, dst) {
		t.Fatal("Reachable across the partition")
	}
	// Same-side traffic is untouched.
	if _, err := tab.Path(g.NodeAt(0, 0), g.NodeAt(1, 3)); err != nil {
		t.Fatalf("same-side path broke: %v", err)
	}
	// Heal one cut edge: the partition closes and Path works again.
	cut[2].SetEnabled(true)
	tab.Repair(g, UniformCost, cut[2])
	if _, err := tab.Path(src, dst); err != nil {
		t.Fatalf("path after heal: %v", err)
	}
	tablesEqual(t, "healed", Build(g, UniformCost), tab)
	for _, e := range cut {
		e.SetEnabled(true)
	}
}

// TestRepairBatchMatchesSequential is the batch-repair bit-equality gate:
// for multi-edge events (a node loss lowered to its incident links, a
// scattered multi-link pulse, a heal), applying all administrative changes
// and then calling RepairBatch once must leave a table routing-identical to
// calling Repair edge-at-a-time — and to a from-scratch Build — on every
// fabric shape. The batch may rebuild fewer columns (it never rebuilds one
// twice) but never more than the sequential sum.
func TestRepairBatchMatchesSequential(t *testing.T) {
	type scenario struct {
		name  string
		edges func(g *topo.Graph) []*topo.Edge // edges whose admin state flips
	}
	nodeEdges := func(g *topo.Graph, n topo.NodeID) []*topo.Edge {
		return append([]*topo.Edge(nil), g.Adjacent(n)...)
	}
	scenarios := []scenario{
		{"single-edge", func(g *topo.Graph) []*topo.Edge { return g.Edges()[:1] }},
		{"node-loss", func(g *topo.Graph) []*topo.Edge { return nodeEdges(g, topo.NodeID(g.NumNodes()/2)) }},
		{"scattered-pulse", func(g *topo.Graph) []*topo.Edge {
			es := g.Edges()
			return []*topo.Edge{es[0], es[len(es)/2], es[len(es)-1]}
		}},
	}
	shapes := []struct {
		name string
		mk   func() *topo.Graph
	}{
		{"grid", func() *topo.Graph { return topo.NewGrid(5, 4, topo.Options{}) }},
		{"torus", func() *topo.Graph { return topo.NewTorus(4, 4, topo.Options{}) }},
		{"line", func() *topo.Graph { return topo.NewLine(9, topo.Options{}) }},
	}
	for _, sh := range shapes {
		for _, sc := range scenarios {
			t.Run(sh.name+"/"+sc.name, func(t *testing.T) {
				g := sh.mk()
				seq := Build(g, UniformCost)
				batch := Build(g, UniformCost)
				set := sc.edges(g)
				// Down pulse, then heal — the restore direction exercises
				// the newly-tied-path branch of the triage.
				for _, phase := range []bool{false, true} {
					for _, e := range set {
						e.SetEnabled(phase)
					}
					seqCols := 0
					for _, e := range set {
						seqCols += seq.Repair(g, UniformCost, e)
					}
					batchCols := batch.RepairBatch(g, UniformCost, set)
					if batchCols > seqCols {
						t.Fatalf("batch rebuilt %d columns, sequential only %d", batchCols, seqCols)
					}
					tablesEqual(t, "batch vs sequential", seq, batch)
					tablesEqual(t, "batch vs fresh build", Build(g, UniformCost), batch)
				}
			})
		}
	}
}

// TestRepairBatchNoop: a batch whose edges' costs did not move — including
// duplicate edges — rebuilds nothing.
func TestRepairBatchNoop(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	e := g.Edges()[3]
	if n := tab.RepairBatch(g, UniformCost, []*topo.Edge{e, e}); n != 0 {
		t.Fatalf("no-op batch rebuilt %d columns", n)
	}
	// A duplicated changed edge counts once: the second occurrence sees the
	// already-updated snapshot.
	e.SetEnabled(false)
	once := Build(g, UniformCost)
	for _, x := range g.Edges() {
		x.SetEnabled(true)
	}
	e.SetEnabled(false)
	if tab.RepairBatch(g, UniformCost, []*topo.Edge{e, e}) == 0 {
		t.Fatal("disabling a live edge rebuilt nothing")
	}
	tablesEqual(t, "dup edge", once, tab)
	e.SetEnabled(true)
}

// TestRepairTriageIsSelective: an edge that sits on no destination's
// shortest-path DAG (priced far above the alternatives) must trigger zero
// column rebuilds when it fails, and zero again when it recovers at the
// same unattractive price — the triage is genuinely incremental, not a
// full rebuild in disguise. A uniform-cost contrast on a line shows the
// other extreme: an end edge is on every DAG, so all columns rebuild.
func TestRepairTriageIsSelective(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	pricey, _ := g.EdgeBetween(g.NodeAt(1, 1), g.NodeAt(2, 1))
	cost := func(e *topo.Edge) float64 {
		c := UniformCost(e)
		if e == pricey {
			c *= 100
		}
		return c
	}
	tab := Build(g, cost)
	pricey.SetEnabled(false)
	if n := tab.Repair(g, cost, pricey); n != 0 {
		t.Fatalf("failing an off-DAG edge rebuilt %d columns, want 0", n)
	}
	tablesEqual(t, "down", Build(g, cost), tab)
	pricey.SetEnabled(true)
	if n := tab.Repair(g, cost, pricey); n != 0 {
		t.Fatalf("restoring an unattractive edge rebuilt %d columns, want 0", n)
	}
	tablesEqual(t, "up", Build(g, cost), tab)

	line := topo.NewLine(16, topo.Options{})
	ltab := Build(line, UniformCost)
	end, _ := line.EdgeBetween(0, 1)
	end.SetEnabled(false)
	if n := ltab.Repair(line, UniformCost, end); n != line.NumNodes() {
		t.Fatalf("end-edge cut rebuilt %d of %d columns", n, line.NumNodes())
	}
	tablesEqual(t, "line", Build(line, UniformCost), ltab)
	end.SetEnabled(true)
}

// TestRepairTieScrubAvoidsRebuild: on a symmetric fabric most columns see a
// failed edge only through their ECMP tie sets — their distances survive, so
// the triage must leave them alone (lookups derive the shrunken tie set)
// instead of rebuilding the column.
// The rebuilt-column count must stay strictly below the number of columns
// whose shortest-path DAG references the edge at all (what a
// reference-counting triage rebuilds), in both the failure and the restore
// direction, while the table stays bit-identical to a fresh Build.
func TestRepairTieScrubAvoidsRebuild(t *testing.T) {
	g := topo.NewTorus(8, 8, topo.Options{})
	tab := Build(g, UniformCost)
	e := g.Edges()[0]
	n := g.NumNodes()

	// Columns whose shortest-path DAG references e as primary or tie.
	referenced := 0
	for dst := topo.NodeID(0); int(dst) < n; dst++ {
		hit := false
		for from := topo.NodeID(0); int(from) < n && !hit; from++ {
			for _, x := range tieList(t, g, tab, from, dst) {
				hit = hit || x == e
			}
		}
		if hit {
			referenced++
		}
	}
	if referenced < 4 {
		t.Fatalf("edge referenced by only %d columns — torus symmetry broken?", referenced)
	}

	e.SetEnabled(false)
	down := tab.Repair(g, UniformCost, e)
	if down == 0 {
		t.Fatal("endpoint columns lost their only 1-hop path yet nothing rebuilt")
	}
	if down >= referenced {
		t.Fatalf("failure rebuilt %d of %d referencing columns — tie-only triage never engaged", down, referenced)
	}
	tablesEqual(t, "down", Build(g, UniformCost), tab)

	e.SetEnabled(true)
	up := tab.Repair(g, UniformCost, e)
	if up == 0 || up >= referenced {
		t.Fatalf("restore rebuilt %d of %d referencing columns", up, referenced)
	}
	tablesEqual(t, "up", Build(g, UniformCost), tab)
}

// fuzzShape builds one of the fuzz target's small fabrics, each with a
// runtime express edge spanning a row so shortcuts and their ties are in
// play.
func fuzzShape(sel uint8) *topo.Graph {
	var g *topo.Graph
	var a, b topo.NodeID
	var via []topo.NodeID
	switch sel % 3 {
	case 0:
		g = topo.NewGrid(4, 3, topo.Options{})
		a, b, via = g.NodeAt(0, 1), g.NodeAt(3, 1), []topo.NodeID{g.NodeAt(1, 1), g.NodeAt(2, 1)}
	case 1:
		g = topo.NewTorus(4, 3, topo.Options{})
		a, b, via = g.NodeAt(0, 0), g.NodeAt(2, 0), []topo.NodeID{g.NodeAt(1, 0)}
	default:
		g = topo.NewLine(7, topo.Options{})
		a, b, via = 1, 5, []topo.NodeID{2, 3, 4}
	}
	g.AddExpress(a, b, via, phy.MustLink(g.NextLinkID(), phy.Backplane, 6, 1, 25.78125e9))
	return g
}

// FuzzRouteRepair random-walks a small fabric through batches of disable,
// enable and re-price operations, applied through Repair edge by edge or
// through one RepairBatch. After every batch the repaired table must equal
// a fresh Build — distances and NextHopECMP tie lists — and Path must
// terminate for every pair: at the destination when it is reachable, with
// ErrUnreachable when it is not. AppendPathLinks must return Path's edge
// indices and errors on every pair. Prices are multiples of 0.5, so walks pass
// through uniform (BFS) and priced (Dijkstra) snapshots alike.
//
// Ops are byte pairs (op, edge): op%4 is disable, enable, re-price (to
// 0.5×(2 + (op>>2)%6)) or end-of-batch; an end-of-batch op with bit 7 set
// applies the batch edge by edge through Repair.
func FuzzRouteRepair(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 5, 3, 0, 1, 0, 131, 0})
	f.Add(uint8(1), []byte{2, 1, 6, 2, 3, 0, 0, 1, 0, 4, 0, 7, 131, 0, 1, 1, 1, 4, 3, 0})
	f.Add(uint8(2), []byte{0, 0, 3, 0, 0, 6, 3, 0, 1, 0, 1, 6, 131, 0, 22, 3, 3, 0})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		g := fuzzShape(shape)
		edges := g.Edges()
		price := make([]float64, g.EdgeIndexBound())
		for i := range price {
			price[i] = 1
		}
		cost := func(e *topo.Edge) float64 {
			if !e.Enabled() || !e.Link.Up() {
				return math.Inf(1)
			}
			return price[e.Index()]
		}
		tab := Build(g, cost)
		var batch []*topo.Edge
		flush := func(sequential bool) {
			if sequential {
				for _, e := range batch {
					tab.Repair(g, cost, e)
				}
			} else {
				tab.RepairBatch(g, cost, batch)
			}
			batch = batch[:0]
			tablesEqual(t, "repaired vs fresh", Build(g, cost), tab)
			for from := topo.NodeID(0); int(from) < g.NumNodes(); from++ {
				for dst := topo.NodeID(0); int(dst) < g.NumNodes(); dst++ {
					checkPathLinks(t, "repaired", tab, from, dst)
					path, err := tab.Path(from, dst)
					if !tab.Reachable(from, dst) {
						if !errors.Is(err, ErrUnreachable) {
							t.Fatalf("Path %d→%d across a partition: err %v", from, dst, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("Path %d→%d: %v", from, dst, err)
					}
					cur := from
					for _, e := range path {
						cur = e.Other(cur)
					}
					if cur != dst {
						t.Fatalf("Path %d→%d ends at %d", from, dst, cur)
					}
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, e := ops[i], edges[int(ops[i+1])%len(edges)]
			switch op % 4 {
			case 0:
				e.SetEnabled(false)
			case 1:
				e.SetEnabled(true)
			case 2:
				price[e.Index()] = 0.5 * float64(2+int(op>>2)%6)
			case 3:
				flush(op&0x80 != 0)
				continue
			}
			batch = append(batch, e)
		}
		flush(false)
	})
}
