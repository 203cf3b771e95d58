package route

import (
	"errors"
	"math"
	"slices"
	"testing"

	"rackfab/internal/topo"
)

// checkPathLinks asserts that AppendPathLinks returns exactly Path's edge
// indices for from→dst, appended after an existing prefix, with the same
// error; and that Path takes NextHopECMP's tie 0 at every hop, so the
// first-tie walk agrees with the all-ties lookup.
func checkPathLinks(t *testing.T, label string, tab *Table, from, dst topo.NodeID) {
	t.Helper()
	path, perr := tab.Path(from, dst)
	prefix := []int32{-7, -8}
	got, lerr := tab.AppendPathLinks(slices.Clone(prefix), from, dst)
	if (perr == nil) != (lerr == nil) || (perr != nil && perr.Error() != lerr.Error()) {
		t.Fatalf("%s: %d→%d: Path err %v, AppendPathLinks err %v", label, from, dst, perr, lerr)
	}
	if errors.Is(perr, ErrUnreachable) != errors.Is(lerr, ErrUnreachable) {
		t.Fatalf("%s: %d→%d: ErrUnreachable on one side only: %v vs %v", label, from, dst, perr, lerr)
	}
	if !slices.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: %d→%d: prefix clobbered: %v", label, from, dst, got)
	}
	want := make([]int32, len(path))
	cur := from
	for i, e := range path {
		if ecmp, ok := tab.NextHopECMP(cur, dst, 0); !ok || ecmp != e {
			t.Fatalf("%s: %d→%d: hop %d at %d is %v, NextHopECMP tie 0 is %v", label, from, dst, i, cur, e, ecmp)
		}
		want[i] = int32(e.Index())
		cur = e.Other(cur)
	}
	if !slices.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: %d→%d: AppendPathLinks %v, Path indices %v", label, from, dst, got[len(prefix):], want)
	}
}

func checkAllPathLinks(t *testing.T, label string, g *topo.Graph, tab *Table) {
	t.Helper()
	for from := topo.NodeID(0); int(from) < g.NumNodes(); from++ {
		for dst := topo.NodeID(0); int(dst) < g.NumNodes(); dst++ {
			checkPathLinks(t, label, tab, from, dst)
		}
	}
}

// TestAppendPathLinksMatchesPath walks every pair of grid, torus and line
// fabrics, each with an express edge, through a uniform build, then through
// RepairBatch calls that disable edges (partitioning the line) and re-price
// others onto the Dijkstra path.
func TestAppendPathLinksMatchesPath(t *testing.T) {
	for shape := uint8(0); shape < 3; shape++ {
		g := fuzzShape(shape)
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
		label := g.Kind()
		checkAllPathLinks(t, label+"/built", g, tab)

		edges := g.Edges()
		express := edges[len(edges)-1]
		down := []*topo.Edge{edges[0], edges[len(edges)/2]}
		for _, e := range down {
			e.SetEnabled(false)
		}
		tab.RepairBatch(g, cost, down)
		checkAllPathLinks(t, label+"/disabled", g, tab)

		price[express.Index()] = 1.5
		price[edges[1].Index()] = 2.5
		tab.RepairBatch(g, cost, []*topo.Edge{express, edges[1]})
		checkAllPathLinks(t, label+"/re-priced", g, tab)

		for _, e := range down {
			e.SetEnabled(true)
		}
		tab.RepairBatch(g, cost, down)
		checkAllPathLinks(t, label+"/restored", g, tab)
	}
}

// TestAppendPathLinksAllocFree: with capacity already in the buffer, the
// first-tie walk allocates nothing.
func TestAppendPathLinksAllocFree(t *testing.T) {
	g := topo.NewGrid(8, 8, topo.Options{})
	tab := Build(g, UniformCost)
	src, dst := g.NodeAt(0, 0), g.NodeAt(7, 7)
	buf := make([]int32, 0, 32)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		buf, err = tab.AppendPathLinks(buf[:0], src, dst)
	})
	if err != nil || len(buf) != 14 {
		t.Fatalf("path %v, err %v; want 14 hops", buf, err)
	}
	if allocs != 0 {
		t.Fatalf("AppendPathLinks: %v allocs per walk, want 0", allocs)
	}
}
