// Distributed repair: run the paper's §5 protocol — every node its own
// protocol state, all coordination by messages in synchronous rounds — and
// watch the per-deletion cost match Theorem 5: O(log n) recovery rounds and
// amortized messages within O(κ·log n) of Lemma 5's Θ(deg) lower bound.
//
// Run with: go run ./examples/distributed-repair
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"github.com/xheal/xheal"
)

func main() {
	const n = 128
	// A random 6-regular expander overlay (the paper's own construction).
	g, err := xheal.RandomRegularGraph(n, 3, 21)
	if err != nil {
		log.Fatal(err)
	}
	d, err := xheal.NewDistributed(g, xheal.WithKappa(4), xheal.WithSeed(33))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("distributed Xheal on a %d-node 6-regular overlay (kappa=4)\n\n", n)
	fmt.Printf("%-10s %-8s %-8s %-10s\n", "deleted", "deg_G'", "rounds", "messages")

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 32; i++ {
		alive := d.State().AliveNodes()
		victim := alive[rng.Intn(len(alive))]
		if err := d.Delete(victim); err != nil {
			log.Fatal(err)
		}
		costs := d.Costs()
		c := costs[len(costs)-1]
		if i%4 == 0 {
			fmt.Printf("%-10d %-8d %-8d %-10d\n", c.Node, c.BlackDegree, c.Rounds, c.Messages)
		}
	}

	t := d.Totals()
	ap := d.AmortizedLowerBound()
	amort := float64(t.Messages) / float64(t.Deletions)
	fmt.Printf("\n%d deletions: %.1f rounds and %.1f messages per repair (amortized)\n",
		t.Deletions, float64(t.Rounds)/float64(t.Deletions), amort)
	fmt.Printf("Lemma 5 lower bound A(p) = %.1f msgs; Theorem 5 envelope k*log2(n)*A(p) = %.1f\n",
		ap, 4*math.Log2(n)*ap)

	// The decisive check: every node's local view — built purely from the
	// messages it received — must equal the healed graph.
	if err := d.ValidateLocalViews(); err != nil {
		log.Fatalf("local view divergence: %v", err)
	}
	fmt.Println("every node's message-built local view matches the healed graph")
	if !d.Graph().IsConnected() {
		log.Fatal("overlay disconnected")
	}
	fmt.Println("overlay connected throughout")
}
