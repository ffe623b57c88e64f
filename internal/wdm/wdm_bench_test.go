package wdm

import (
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// BenchmarkPlanRandom90 plans a random:0.9 demand on a 90-node ring over
// its greedy covering: the cold-plan shape whose Plan cost the serving
// benchmark sees, dominated by assignment and the fact pass.
func BenchmarkPlanRandom90(b *testing.B) {
	in, err := instance.RandomSymmetric(90, 0.9, 1)
	if err != nil {
		b.Fatal(err)
	}
	cv := construct.Greedy(ring.MustNew(90), in.Demand)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(cv, in.Demand); err != nil {
			b.Fatal(err)
		}
	}
}

// factsSink keeps BenchmarkNetworkFacts' reads observable.
var factsSink float64

// BenchmarkNetworkFacts reads every fact a /plan response carries from a
// planned K_101 network — wavelengths, ADMs, max transit and the
// default-model cost — as each warm cache hit does. cmd/benchgate pins
// it at 0 allocs/op.
func BenchmarkNetworkFacts(b *testing.B) {
	res, err := construct.AllToAll(101)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := Plan(res.Covering, instance.AllToAll(101).Demand)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		factsSink += float64(nw.Wavelengths()+nw.ADMCount()+nw.MaxTransit()+nw.TransitAt(i%101)) +
			DefaultCostModel.Cost(nw)
	}
}
