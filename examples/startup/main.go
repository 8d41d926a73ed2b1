// Startup: the paper's incremental-deployment pathway (§4) from day one.
// A brand-new provider has launched just THREE satellites — hopelessly
// below the ~25 needed for continuous paths and the ~50 for full coverage.
// Synchronous Internet service is impossible; but with store-and-forward
// custody (bundles held on board until the next contact), the fleet can
// sell delay-tolerant messaging immediately, and every added satellite
// shrinks the delay.
package main

import (
	"fmt"
	"log"
	"math/rand"

	openspace "github.com/openspace-project/openspace"
)

func main() {
	rng := rand.New(rand.NewSource(21))
	nairobi := openspace.LatLon{Lat: -1.29, Lon: 36.82}
	london := openspace.LatLon{Lat: 51.51, Lon: -0.13}

	users := []openspace.UserSpec{{ID: "clinic-nairobi", Provider: "startup", Pos: nairobi}}
	grounds := []openspace.GroundSpec{{ID: "gw-london", Provider: "startup", Pos: london}}

	for _, fleet := range []int{3, 8, 20} {
		c := openspace.RandomConstellation(fleet, 780, rng)
		sats := make([]openspace.SatSpec, c.Len())
		for i, s := range c.Satellites {
			sats[i] = openspace.SatSpec{ID: s.ID, Provider: "startup", Elements: s.Elements}
		}
		// Six hours of public, precomputable topology.
		te, err := openspace.BuildTimeExpanded(0, 6*3600, 120, openspace.DefaultTopology(), sats, grounds, users)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("fleet of %d satellites:\n", fleet)
		if _, err := openspace.ShortestPath(te.Snap(0), "clinic-nairobi", "gw-london",
			openspace.LatencyCost(0)); err != nil {
			fmt.Println("  synchronous service: NO instantaneous path Nairobi → London")
		} else {
			fmt.Println("  synchronous service: available right now")
		}

		route, err := openspace.EarliestArrival(te, "clinic-nairobi", "gw-london", 0, 0)
		if err != nil {
			fmt.Println("  store-and-forward: not even custody delivery within 6 h")
			continue
		}
		fmt.Printf("  store-and-forward: delivered in %.0f min over %d hops (%.0f min on-board)\n",
			route.ArrivalS/60, len(route.Hops), route.TotalWaitS/60)
		for _, h := range route.Hops {
			if h.WaitS > 60 {
				fmt.Printf("    bundle waits %5.0f min at %s, then %s → %s\n",
					h.WaitS/60, h.From, h.From, h.To)
			}
		}
		fmt.Println()
	}
	fmt.Println("every launch shrinks the delay; at ~25 satellites the same fleet")
	fmt.Println("starts offering synchronous paths — incremental deployment, not all-or-nothing")
}
