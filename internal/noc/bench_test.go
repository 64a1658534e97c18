package noc

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkNetworkSendHop measures the per-packet NoC cost — dense link
// lookup, credit acquisition, bus reservation and stats — on the default
// 8-node chain with the cached static route.
func BenchmarkNetworkSendHop(b *testing.B) {
	n := NewNetwork(NewChain(8), GRSLink())
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end, _, err := n.Send(t, i%7, i%7+1, 272)
		if err != nil {
			b.Fatal(err)
		}
		t = end
	}
}

// BenchmarkNetworkSendRoute is the multi-hop variant: end-to-end packets
// across the whole chain, exercising the route cache and every link.
func BenchmarkNetworkSendRoute(b *testing.B) {
	n := NewNetwork(NewChain(8), GRSLink())
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end, _, err := n.Send(t, 0, 7, 272)
		if err != nil {
			b.Fatal(err)
		}
		t = end
	}
}

// BenchmarkLinkUtilizationSample measures one full sampler tick over every
// link using the per-link probe.
func BenchmarkLinkUtilizationSample(b *testing.B) {
	n := NewNetwork(NewChain(8), GRSLink())
	var t sim.Time
	for i := 0; i < 1000; i++ {
		end, _, _ := n.Send(t, i%7, i%7+1, 272)
		t = end
	}
	links := len(n.LinkKeys())
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < links; j++ {
			sum += n.LinkUtilizationAt(j, t)
		}
	}
	_ = sum
}
