package routing

import (
	"errors"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

func testTimeExpanded(t *testing.T) *topo.TimeExpanded {
	t.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = topo.SatSpec{ID: s.ID, Provider: "A", Elements: s.Elements}
	}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "A", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u", Provider: "A", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	te, err := topo.BuildTimeExpanded(0, 300, 60, topo.DefaultConfig(), sats, grounds, users)
	if err != nil {
		t.Fatal(err)
	}
	return te
}

func TestProactiveRouteMatchesDijkstra(t *testing.T) {
	te := testTimeExpanded(t)
	r := NewProactiveRouter(te, LatencyCost(0))
	p, err := r.Route(0, "u", "gs")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ShortestPath(te.Snap(0), "u", "gs", LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != direct.Cost {
		t.Errorf("proactive cost %v != direct %v", p.Cost, direct.Cost)
	}
}

func TestProactiveErrors(t *testing.T) {
	te := testTimeExpanded(t)
	r := NewProactiveRouter(te, LatencyCost(0))
	if _, err := r.Route(0, "u", "ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown dst: %v", err)
	}
	if _, err := r.Route(0, "ghost", "gs"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown src: %v", err)
	}
	empty := NewProactiveRouter(&topo.TimeExpanded{}, LatencyCost(0))
	if _, err := empty.Route(0, "a", "b"); err == nil {
		t.Error("empty series should error")
	}
}
