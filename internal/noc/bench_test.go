package noc

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkNetworkSendHop measures the per-packet NoC cost — cached route
// lookup, dense link lookup, credit acquisition and bus reservation — on
// the default 8-node chain.
func BenchmarkNetworkSendHop(b *testing.B) {
	n := NewNetwork(NewChain(8), GRSLink())
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _ = send(b, n, t, i%7, i%7+1, 272)
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
		t, _ = send(b, n, t, 0, 7, 272)
	}
}

// BenchmarkLinkUtilizationSample measures one full sampler tick over every
// link using the per-link probe.
func BenchmarkLinkUtilizationSample(b *testing.B) {
	n := NewNetwork(NewChain(8), GRSLink())
	var t sim.Time
	for i := 0; i < 1000; i++ {
		t, _ = send(b, n, t, i%7, i%7+1, 272)
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
