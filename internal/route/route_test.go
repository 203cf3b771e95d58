package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rackfab/internal/phy"
	"rackfab/internal/topo"
)

func TestUniformHopsMatchBFS(t *testing.T) {
	g := topo.NewGrid(5, 4, topo.Options{})
	tab := Build(g, UniformCost)
	for src := 0; src < g.NumNodes(); src++ {
		hops := g.HopsFrom(topo.NodeID(src))
		for dst := 0; dst < g.NumNodes(); dst++ {
			want := float64(hops[dst])
			if got := tab.Distance(topo.NodeID(src), topo.NodeID(dst)); got != want {
				t.Fatalf("dist %d→%d = %v, want %v", src, dst, got, want)
			}
		}
	}
}

func TestPathFollowsTable(t *testing.T) {
	g := topo.NewGrid(4, 4, topo.Options{})
	tab := Build(g, UniformCost)
	src, dst := g.NodeAt(0, 0), g.NodeAt(3, 3)
	path, err := tab.Path(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		t.Fatalf("path len = %d, want 6 (Manhattan)", len(path))
	}
	// Path must be contiguous from src to dst.
	cur := src
	for _, e := range path {
		if !e.Touches(cur) {
			t.Fatal("discontiguous path")
		}
		cur = e.Other(cur)
	}
	if cur != dst {
		t.Fatal("path does not end at dst")
	}
}

func TestSelfAndUnreachable(t *testing.T) {
	g := topo.NewLine(3, topo.Options{})
	tab := Build(g, UniformCost)
	if _, ok := tab.NextHop(1, 1); ok {
		t.Fatal("self next hop")
	}
	if p, err := tab.Path(1, 1); err != nil || p != nil {
		t.Fatal("self path should be empty")
	}
	// Down the middle link: 2 becomes unreachable from 0.
	e, _ := g.EdgeBetween(1, 2)
	for _, lane := range e.Link.Lanes {
		if err := lane.SetState(phy.LaneOff); err != nil {
			t.Fatal(err)
		}
	}
	tab = Build(g, UniformCost)
	if tab.Reachable(0, 2) {
		t.Fatal("reachable across downed link")
	}
	if _, err := tab.Path(0, 2); err == nil {
		t.Fatal("path across downed link")
	}
}

func TestWeightedRoutesAvoidExpensiveLink(t *testing.T) {
	// Square: 0-1, 1-3, 0-2, 2-3. Price 0-1 heavily; 0→3 must go via 2.
	g := topo.NewGrid(2, 2, topo.Options{})
	exp, _ := g.EdgeBetween(0, 1)
	cost := func(e *topo.Edge) float64 {
		if !e.Link.Up() {
			return math.Inf(1)
		}
		if e == exp {
			return 10
		}
		return 1
	}
	tab := Build(g, cost)
	path, err := tab.Path(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range path {
		if e == exp {
			t.Fatal("route used the expensive link")
		}
	}
	if tab.Distance(0, 3) != 2 {
		t.Fatalf("distance = %v", tab.Distance(0, 3))
	}
}

func TestECMPSpreads(t *testing.T) {
	g := topo.NewGrid(3, 3, topo.Options{})
	tab := Build(g, UniformCost)
	src, dst := g.NodeAt(0, 0), g.NodeAt(2, 2)
	seen := map[*topo.Edge]bool{}
	for h := uint64(0); h < 64; h++ {
		e, ok := tab.NextHopECMP(src, dst, h)
		if !ok {
			t.Fatal("no ECMP hop")
		}
		seen[e] = true
	}
	// From a corner toward the opposite corner there are two equal-cost
	// first hops; hashing must use both.
	if len(seen) != 2 {
		t.Fatalf("ECMP used %d edges, want 2", len(seen))
	}
}

func TestExpressEdgeShortcut(t *testing.T) {
	g := topo.NewGrid(4, 1, topo.Options{})
	link := phy.MustLink(g.NextLinkID(), phy.Backplane, 6, 1, 25.78125e9)
	g.AddExpress(0, 3, []topo.NodeID{1, 2}, link)
	tab := Build(g, UniformCost)
	if d := tab.Distance(0, 3); d != 1 {
		t.Fatalf("distance with express = %v, want 1", d)
	}
	path, err := tab.Path(0, 3)
	if err != nil || len(path) != 1 || !path[0].Express {
		t.Fatalf("path should be the express edge: %v err=%v", path, err)
	}
}

func TestNonPositiveCostPanics(t *testing.T) {
	g := topo.NewLine(2, topo.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero cost")
		}
	}()
	Build(g, func(e *topo.Edge) float64 { return 0 })
}

// Property: on a torus with uniform costs, table distance equals the torus
// Manhattan metric min(dx,w−dx)+min(dy,h−dy).
func TestTorusDistanceProperty(t *testing.T) {
	f := func(wRaw, hRaw, aRaw, bRaw uint8) bool {
		w := 3 + int(wRaw)%4
		h := 3 + int(hRaw)%4
		g := topo.NewTorus(w, h, topo.Options{})
		tab := Build(g, UniformCost)
		a := topo.NodeID(int(aRaw) % (w * h))
		b := topo.NodeID(int(bRaw) % (w * h))
		ca, cb := g.Coord(a), g.Coord(b)
		dx := abs(ca.X - cb.X)
		if w-dx < dx {
			dx = w - dx
		}
		dy := abs(ca.Y - cb.Y)
		if h-dy < dy {
			dy = h - dy
		}
		return tab.Distance(a, b) == float64(dx+dy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(60))}); err != nil {
		t.Fatal(err)
	}
}

// Property: following primary next hops always terminates at the
// destination with monotonically decreasing remaining distance.
func TestNoLoopsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topo.NewGrid(3+rng.Intn(4), 3+rng.Intn(4), topo.Options{})
		// Random positive link costs.
		costs := map[*topo.Edge]float64{}
		for _, e := range g.Edges() {
			costs[e] = 1 + rng.Float64()*9
		}
		tab := Build(g, func(e *topo.Edge) float64 { return costs[e] })
		for trial := 0; trial < 10; trial++ {
			a := topo.NodeID(rng.Intn(g.NumNodes()))
			b := topo.NodeID(rng.Intn(g.NumNodes()))
			if _, err := tab.Path(a, b); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// refDijkstra is an independent reference: textbook O(n²) Dijkstra toward
// dst over a cost snapshot, returning every node's distance.
func refDijkstra(g *topo.Graph, cost CostFunc, dst topo.NodeID) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[dst] = 0
	for {
		u := -1
		for v := 0; v < n; v++ {
			if !done[v] && !math.IsInf(dist[v], 1) && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for _, e := range g.Adjacent(topo.NodeID(u)) {
			c := cost(e)
			if math.IsInf(c, 1) {
				continue
			}
			if v := e.Other(topo.NodeID(u)); dist[u]+c < dist[v] {
				dist[v] = dist[u] + c
			}
		}
	}
}

// TestBFSMatchesDijkstra: uniform-cost tables are built by BFS, priced ones
// by Dijkstra; both must reproduce the reference Dijkstra's distances bit
// for bit on every column — at unit cost, at uniform non-unit costs (0.1
// accumulates rounding, so the float sums themselves must match), and with
// random prices.
func TestBFSMatchesDijkstra(t *testing.T) {
	express := func() *topo.Graph {
		g := topo.NewGrid(6, 3, topo.Options{})
		link := phy.MustLink(g.NextLinkID(), phy.Backplane, 6, 1, 25.78125e9)
		g.AddExpress(g.NodeAt(0, 1), g.NodeAt(5, 1), []topo.NodeID{g.NodeAt(1, 1), g.NodeAt(2, 1), g.NodeAt(3, 1), g.NodeAt(4, 1)}, link)
		return g
	}
	shapes := []struct {
		name string
		g    *topo.Graph
	}{
		{"grid", topo.NewGrid(6, 5, topo.Options{})},
		{"torus", topo.NewTorus(5, 6, topo.Options{})},
		{"express", express()},
	}
	uniform := func(c float64) CostFunc {
		return func(e *topo.Edge) float64 { return c * UniformCost(e) }
	}
	rng := rand.New(rand.NewSource(62))
	priced := map[*topo.Edge]float64{}
	for _, sh := range shapes {
		for _, e := range sh.g.Edges() {
			priced[e] = 1 + rng.Float64()*9
		}
	}
	costs := []struct {
		name string
		cost CostFunc
		bfs  bool
	}{
		{"unit", UniformCost, true},
		{"2.5", uniform(2.5), true},
		{"0.1", uniform(0.1), true},
		{"priced", func(e *topo.Edge) float64 { return priced[e] }, false},
	}
	for _, sh := range shapes {
		for _, c := range costs {
			tab := Build(sh.g, c.cost)
			if got := tab.uniformCosts(); got != c.bfs {
				t.Fatalf("%s/%s: uniform = %v, want %v", sh.name, c.name, got, c.bfs)
			}
			for dst := 0; dst < sh.g.NumNodes(); dst++ {
				want := refDijkstra(sh.g, c.cost, topo.NodeID(dst))
				for from, w := range want {
					got := tab.Distance(topo.NodeID(from), topo.NodeID(dst))
					if math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s/%s: dist %d→%d = %v, want %v", sh.name, c.name, from, dst, got, w)
					}
				}
			}
		}
	}
}
