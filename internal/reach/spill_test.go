package reach

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/modelgen"
	"repro/internal/petri"
)

// TestSpillStoreRoundTrip drives the framed-block codec across sealed,
// spilled and open blocks, stride-width and wider rows, and checks
// every access path, exactly like TestMarkingStoreRoundTrip does for
// the in-memory store.
func TestSpillStoreRoundTrip(t *testing.T) {
	const places, n, wide = 7, 5*spillBlockEntries + 11, 2*spillBlockEntries + 5
	ref := storeWalk(rand.New(rand.NewSource(42)), places, n, wide)
	s := NewSpillStore(places, 0, t.TempDir()) // budget 0: every sealed block spills
	defer s.Close()
	checkStore(t, s, ref, wide)
	if s.SpilledBytes() == 0 {
		t.Fatal("budget-0 spill store never spilled")
	}
}

// TestSpillStoreCloseRemovesTempFile: the spill temp file must not
// outlive the store — Close removes it, and Close is idempotent.
func TestSpillStoreCloseRemovesTempFile(t *testing.T) {
	dir := t.TempDir()
	s := NewSpillStore(3, 0, dir)
	m := petri.Marking{1, 2, 3}
	for i := 0; i < 3*spillBlockEntries; i++ {
		m[0] = i
		s.Add(appendMarking(nil, m))
	}
	if s.SpilledBytes() == 0 {
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

// TestBuildSpillMatchesMem is the cross-store identity property test:
// for in-memory budgets {0, tiny, huge} the spill-store graph must be
// bit-identical to the in-memory oracle — for the serial builder and
// every shard count — and the temp files must be gone afterwards.
func TestBuildSpillMatchesMem(t *testing.T) {
	nets := append([]buildCase{
		{"mutex", mutexNet(t), Options{}},
		{"pipeline_8x3", modelgen.DeepPipeline(8, 3, 1), Options{}},
		{"forkjoin_4x3", modelgen.ForkJoin(4, 3, 3), Options{}},
		{"truncated", unboundedBranchNet(), Options{MaxStates: 500}},
	}, append(wideTestNets(), scanTestNets()...)...)
	budgets := []int64{0, 256, 1 << 30}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			want, err := BuildSerial(context.Background(), tc.net, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range budgets {
				dir := t.TempDir()
				opt := tc.opt
				opt.Store, opt.SpillBudget, opt.SpillDir = StoreSpill, budget, dir

				got, err := BuildSerial(context.Background(), tc.net, opt)
				if err != nil {
					t.Fatalf("serial budget=%d: %v", budget, err)
				}
				graphsIdentical(t, want, got)
				if budget == 0 && want.StoreBytes() > spillBlockEntries*len(tc.net.Places) {
					if got.SpilledBytes() == 0 {
						t.Errorf("serial budget=0: nothing spilled for a %d-byte store", got.StoreBytes())
					}
				}
				if err := got.Close(); err != nil {
					t.Fatal(err)
				}

				for _, shards := range []int{1, 2, 8} {
					opt.Shards = shards
					got, err := Build(context.Background(), tc.net, opt)
					if err != nil {
						t.Fatalf("shards=%d budget=%d: %v", shards, budget, err)
					}
					graphsIdentical(t, want, got)
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
	g, err := Build(context.Background(), net, Options{
		Store: StoreSpill, SpillBudget: budget, SpillDir: t.TempDir(),
	})
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
	if _, err := Build(ctx, net, Options{Store: StoreSpill, SpillDir: dir}); err != context.Canceled {
		t.Errorf("Build(spill): err = %v, want context.Canceled", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("cancelled spill build left %d temp files", len(ents))
	}
}

// TestCheckStore validates the store-name gate the flag and spec layers
// rely on.
func TestCheckStore(t *testing.T) {
	for _, ok := range []Options{
		{}, {Store: StoreMem}, {Store: StoreSpill},
		{SpillBudget: 4096}, {SpillDir: "/tmp"},
	} {
		if err := ok.CheckStore(); err != nil {
			t.Errorf("CheckStore(%+v) = %v", ok, err)
		}
	}
	bad := Options{Store: "fancy"}
	if err := bad.CheckStore(); err == nil {
		t.Error("unknown store name validated")
	}
	if got := (Options{SpillBudget: 1}).StoreName(); got != StoreSpill {
		t.Errorf("SpillBudget alone resolves to %q, want spill", got)
	}
	if got := (Options{}).StoreName(); got != StoreMem {
		t.Errorf("zero Options resolve to %q, want mem", got)
	}
}
