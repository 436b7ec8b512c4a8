package sweepcli

import (
	"strings"
	"testing"

	"repro/internal/experiment"
)

// parseConfig runs a flag list through the real Register surface.
func parseConfig(t *testing.T, args ...string) *Config {
	t.Helper()
	c, _, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sameGrid(t *testing.T, a, b experiment.SweepOptions) bool {
	t.Helper()
	ma, mb := experiment.MetaOf(a, ""), experiment.MetaOf(b, "")
	return ma.SameGrid(&mb)
}

// TestSpecDefaultsMatchFlagDefaults pins the one-surface guarantee in
// the empty direction: a spec that sets nothing but a metric resolves
// to exactly the grid `pnut-sweep -throughput Issue` runs.
func TestSpecDefaultsMatchFlagDefaults(t *testing.T) {
	spec := Spec{Throughput: []string{"Issue"}}
	got, info, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := parseConfig(t, "-throughput", "Issue").Options()
	if err != nil {
		t.Fatal(err)
	}
	if !sameGrid(t, got, want) {
		t.Fatalf("empty spec grid differs from CLI default grid:\nspec: %+v\ncli:  %+v",
			experiment.MetaOf(got, ""), experiment.MetaOf(want, ""))
	}
	if info.Digest != "builtin:pipeline" {
		t.Fatalf("default model digest %q, want builtin:pipeline", info.Digest)
	}
}

// TestSpecMatchesEquivalentFlags drives both surfaces with the same
// fully-specified sweep, adaptive rule included, and requires the
// identical grid.
func TestSpecMatchesEquivalentFlags(t *testing.T) {
	spec := Spec{
		Model:       "cache",
		Axes:        []string{"DHitRatio=0:1:0.5", "MemoryCycles=1,5"},
		Seed:        42,
		Horizon:     2500,
		MaxStarts:   900,
		Adaptive:    "throughput(Issue):0.05",
		MinReps:     3,
		MaxReps:     16,
		Batch:       2,
		Throughput:  []string{"Issue"},
		Utilization: []string{"Bus_busy"},
	}
	got, info, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, name, err := parseConfig(t,
		"-model", "cache",
		"-axis", "DHitRatio=0:1:0.5", "-axis", "MemoryCycles=1,5",
		"-seed", "42", "-horizon", "2500", "-max-starts", "900",
		"-adaptive", "throughput(Issue):0.05", "-min-reps", "3", "-max-reps", "16", "-batch", "2",
		"-throughput", "Issue", "-utilization", "Bus_busy",
	).Options()
	if err != nil {
		t.Fatal(err)
	}
	if !sameGrid(t, got, want) {
		t.Fatalf("spec grid differs from flag grid:\nspec: %+v\ncli:  %+v",
			experiment.MetaOf(got, ""), experiment.MetaOf(want, ""))
	}
	if info.Name != name {
		t.Fatalf("spec model name %q, flags resolved %q", info.Name, name)
	}
	if info.Digest != "builtin:cache" {
		t.Fatalf("model digest %q, want builtin:cache", info.Digest)
	}
}

// TestSpecInlineNet resolves inline .pn source: the build hook applies
// axis overrides to net vars, and the model digest is the canonical
// hash — invariant under declaration order of the same model.
func TestSpecInlineNet(t *testing.T) {
	const src = `
net two_phase
var delay 3
place ready init 1
place busy
trans start
  in ready
  out busy
  enabling expr{ delay }
trans finish
  in busy
  out ready
  firing 2
`
	spec := Spec{
		Net:        src,
		Axes:       []string{"delay=1,2"},
		Reps:       2,
		Horizon:    200,
		Throughput: []string{"finish"},
	}
	opt, info, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "two_phase" {
		t.Fatalf("net name %q", info.Name)
	}
	if len(info.Digest) != len("net:")+64 || info.Digest[:4] != "net:" {
		t.Fatalf("digest %q is not net:<sha256>", info.Digest)
	}
	net, err := opt.Build(experiment.Point{Names: []string{"delay"}, Values: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if net.Vars["delay"] != 2 {
		t.Fatalf("axis override not applied: delay = %d", net.Vars["delay"])
	}

	// Reordered declarations of the same model: same digest.
	const reordered = `
net two_phase
place busy
place ready init 1
var delay 3
trans finish
  in busy
  out ready
  firing 2
trans start
  in ready
  out busy
  enabling expr{ delay }
`
	spec2 := spec
	spec2.Net = reordered
	_, info2, err := spec2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Digest != info.Digest {
		t.Fatalf("reordered source digests differ: %s vs %s", info2.Digest, info.Digest)
	}

	// A semantic edit changes it.
	spec3 := spec
	spec3.Net = "net two_phase\nvar delay 4\nplace ready init 1\nplace busy\ntrans start\n  in ready\n  out busy\n  enabling expr{ delay }\ntrans finish\n  in busy\n  out ready\n  firing 2\n"
	_, info3, err := spec3.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if info3.Digest == info.Digest {
		t.Fatal("semantic edit kept the same digest")
	}
}

// TestSpecErrors surfaces the flag layer's own validation.
func TestSpecErrors(t *testing.T) {
	cases := map[string]Spec{
		"no metrics":    {Model: "cache"},
		"bad model":     {Model: "nope", Throughput: []string{"Issue"}},
		"bad axis":      {Model: "cache", Axes: []string{"DHitRatio"}, Throughput: []string{"Issue"}},
		"bad adaptive":  {Model: "cache", Adaptive: "nope", Throughput: []string{"Issue"}},
		"bad net":       {Net: "not a net", Throughput: []string{"Issue"}},
		"negative reps": {Model: "cache", Reps: -1, Throughput: []string{"Issue"}},
	}
	for name, spec := range cases {
		if _, _, err := spec.Resolve(); err == nil {
			t.Errorf("%s: Resolve accepted an invalid spec", name)
		}
	}
}

// TestSpecRejectsOverflowingGrid: a grid whose point count (four axes
// of 2^16 values: 2^64 points) or cell count (three such axes times
// 2^16 replications) wraps int must fail Resolve, not come back as a
// small or empty grid a server's cell cap would admit.
func TestSpecRejectsOverflowingGrid(t *testing.T) {
	axes := []string{"DHitRatio=0:65535:1", "IHitRatio=0:65535:1", "MemoryCycles=0:65535:1", "HitCycles=0:65535:1"}
	for name, spec := range map[string]Spec{
		"points": {Model: "cache", Axes: axes, Throughput: []string{"Issue"}},
		"cells":  {Model: "cache", Axes: axes[:3], Reps: 1 << 16, Throughput: []string{"Issue"}},
	} {
		opt, _, err := spec.Resolve()
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("%s: Resolve = %d points, %d cells, err %v; want an overflow error", name, opt.NumPoints(), opt.NumCells(), err)
		}
	}
}
