package reach

import (
	"context"
	"math"
	"os"
	"testing"

	"repro/internal/modelgen"
	"repro/internal/petri"
)

// TestSpillCloseRemovesTempFile: the spill temp file must not outlive
// the store — Close removes it, and Close is idempotent.
func TestSpillCloseRemovesTempFile(t *testing.T) {
	dir := t.TempDir()
	s := newRowStore(3, false, 1, dir)
	s.Keep(math.MaxInt)
	m := petri.Marking{1, 2, 3}
	for i := 0; i < 3*blockRows; i++ {
		m[0] = i
		s.Add(appendMarking(nil, m))
	}
	if s.spilled == 0 {
		t.Fatal("store never spilled")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("spill dir holds %d files, want 1", len(ents))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir still holds %d files after Close", len(ents))
	}
}

// TestBuildSpillMatchesMem is the cross-budget identity property test:
// for spill budgets {1 byte, tiny, huge} the graph must be bit-identical
// to the in-memory one — the untimed serial oracle, the untimed build at
// every shard count, and the timed build at every shard count against
// its in-memory run — and the temp files must be gone afterwards. At a
// 1-byte budget every untruncated graph of two blocks or more must
// spill.
func TestBuildSpillMatchesMem(t *testing.T) {
	type spillCase struct {
		buildCase
		timed bool // build with BuildTimed
	}
	var nets []spillCase
	for _, tc := range append([]buildCase{
		{"mutex", mutexNet(t), Options{}},
		{"pipeline_8x3", modelgen.DeepPipeline(8, 3, 1), Options{}},
		{"forkjoin_4x3", modelgen.ForkJoin(4, 3, 3), Options{}},
		{"truncated", unboundedBranchNet(), Options{MaxStates: 500}},
	}, append(wideTestNets(), scanTestNets()...)...) {
		nets = append(nets, spillCase{buildCase: tc})
	}
	for _, tc := range timedTestNets(t) {
		tc.name = "timed_" + tc.name
		nets = append(nets, spillCase{buildCase: tc, timed: true})
	}
	budgets := []int64{1, 256, 1 << 30}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			build, want, err := Build, (*Graph)(nil), error(nil)
			if tc.timed {
				build = BuildTimed
				want, err = BuildTimed(context.Background(), tc.net, tc.opt)
			} else {
				want, err = BuildSerial(context.Background(), tc.net, tc.opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			mustSpill := func(budget int64, got *Graph) {
				t.Helper()
				if budget == 1 && !want.Truncated && len(want.Nodes) >= 2*blockRows && got.SpilledBytes() == 0 {
					t.Errorf("budget=1: nothing spilled for %d states", len(want.Nodes))
				}
			}
			for _, budget := range budgets {
				dir := t.TempDir()
				opt := tc.opt
				opt.SpillBudget, opt.SpillDir = budget, dir

				if !tc.timed {
					got, err := BuildSerial(context.Background(), tc.net, opt)
					if err != nil {
						t.Fatalf("serial budget=%d: %v", budget, err)
					}
					graphsIdentical(t, want, got)
					mustSpill(budget, got)
					if err := got.Close(); err != nil {
						t.Fatal(err)
					}
				}

				for _, shards := range []int{1, 2, 3, 8} {
					opt.Shards = shards
					got, err := build(context.Background(), tc.net, opt)
					if err != nil {
						t.Fatalf("shards=%d budget=%d: %v", shards, budget, err)
					}
					graphsIdentical(t, want, got)
					mustSpill(budget, got)
					if err := got.Close(); err != nil {
						t.Fatal(err)
					}
				}
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Fatalf("budget=%d: %d spill files left after Close", budget, len(ents))
				}
			}
		})
	}
}

// TestBuildSpillExceedsBudget is the headline property: an exploration
// whose marking store is far larger than the in-memory budget completes
// by spilling — MaxStates is no longer bounded by RAM.
func TestBuildSpillExceedsBudget(t *testing.T) {
	const budget = 1024
	net := modelgen.DeepPipeline(10, 4, 2)
	g, err := Build(context.Background(), net, Options{SpillBudget: budget, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Truncated {
		t.Fatal("exploration truncated")
	}
	if g.StoreBytes() <= 4*budget {
		t.Fatalf("store too small to prove anything: %d bytes", g.StoreBytes())
	}
	if g.SpilledBytes() == 0 {
		t.Fatal("nothing spilled despite exceeding the budget")
	}
	// The graph stays fully analyzable off the spilled store.
	want, err := BuildSerial(context.Background(), net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, want, g)
}

// TestBuildCancelled: a cancelled context aborts every construction
// entry point with ctx.Err() — and a cancelled spill build leaves no
// temp file behind.
func TestBuildCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := mutexNet(t)
	if _, err := Build(ctx, net, Options{}); err != context.Canceled {
		t.Errorf("Build: err = %v, want context.Canceled", err)
	}
	if _, err := BuildSerial(ctx, net, Options{}); err != context.Canceled {
		t.Errorf("BuildSerial: err = %v, want context.Canceled", err)
	}
	if _, err := BuildTimed(ctx, net, Options{}); err != context.Canceled {
		t.Errorf("BuildTimed: err = %v, want context.Canceled", err)
	}
	if _, err := BuildTimedSerial(ctx, net, Options{}); err != context.Canceled {
		t.Errorf("BuildTimedSerial: err = %v, want context.Canceled", err)
	}
	if _, err := Coverability(ctx, net, Options{}); err != context.Canceled {
		t.Errorf("Coverability: err = %v, want context.Canceled", err)
	}
	dir := t.TempDir()
	if _, err := Build(ctx, net, Options{SpillBudget: 1, SpillDir: dir}); err != context.Canceled {
		t.Errorf("Build(spill): err = %v, want context.Canceled", err)
	}
	if _, err := BuildTimed(ctx, net, Options{SpillBudget: 1, SpillDir: dir}); err != context.Canceled {
		t.Errorf("BuildTimed(spill): err = %v, want context.Canceled", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("cancelled spill build left %d temp files", len(ents))
	}
}
