package construct

import (
	"context"
	"testing"

	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/ring"
)

// Portfolio-vs-single-strategy benchmarks. Odd ring sizes keep the
// closed-form path un-memoized (the even-n builder caches per process),
// so these measure real construction work per iteration. On a single
// vCPU the portfolio's extra members contend with the winner for the
// core, so its overhead versus bare closed-form is an honest upper
// bound; with spare cores the racers overlap and the gap narrows (see
// EXPERIMENTS.md §P).

func benchSolve(b *testing.B, st Strategy, in instance.Instance) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := st.Solve(ctx, in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyClosedFormOdd13(b *testing.B) {
	benchSolve(b, ClosedForm{}, instance.AllToAll(13))
}

func BenchmarkStrategyPortfolioOdd13(b *testing.B) {
	benchSolve(b, NewPortfolio(), instance.AllToAll(13))
}

func BenchmarkStrategyGreedyHub32(b *testing.B) {
	benchSolve(b, GreedySweep{}, instance.Hub(32, 0))
}

func BenchmarkStrategyPortfolioHub32(b *testing.B) {
	benchSolve(b, NewPortfolio(), instance.Hub(32, 0))
}

func BenchmarkStrategyExactOdd9(b *testing.B) {
	benchSolve(b, ExactSearch{}, instance.AllToAll(9))
}

// BenchmarkGreedyDirect is the registry-free baseline for the greedy
// path, isolating the strategy layer's dispatch overhead.
func BenchmarkGreedyDirect(b *testing.B) {
	in := instance.Hub(32, 0)
	r := ring.MustNew(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyCtx(context.Background(), r, in.Demand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniformLambda is the λ-class recognition every cache signature
// runs, on K_101 (5,050 pairs): the largest warm-set demand of the
// serving benchmark. cmd/benchgate pins it at 0 allocs/op.
func BenchmarkUniformLambda(b *testing.B) {
	g := instance.AllToAll(101).Demand
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lam, ok := UniformLambda(g); !ok || lam != 1 {
			b.Fatalf("UniformLambda(K_101) = %d, %v", lam, ok)
		}
	}
}
