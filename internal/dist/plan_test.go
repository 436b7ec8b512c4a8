package dist

import (
	"testing"

	"repro/internal/experiment"
)

// TestPlanShardsProperties: every plan covers the grid exactly once
// with contiguous near-equal spans, for a sweep of grid and shard
// sizes including the degenerate edges.
func TestPlanShardsProperties(t *testing.T) {
	for _, cells := range []int{1, 2, 3, 7, 12, 16, 97, 1000} {
		for _, shards := range []int{-1, 0, 1, 2, 3, 4, 7, 16, 1500} {
			spans := PlanShards(cells, shards)
			if len(spans) == 0 {
				t.Fatalf("cells=%d shards=%d: empty plan", cells, shards)
			}
			want := shards
			if want < 1 {
				want = 1
			}
			if want > cells {
				want = cells
			}
			if len(spans) != want {
				t.Errorf("cells=%d shards=%d: %d spans, want %d", cells, shards, len(spans), want)
			}
			next, min, max := 0, cells, 0
			for _, s := range spans {
				if s.Lo != next || s.Hi <= s.Lo {
					t.Fatalf("cells=%d shards=%d: span %s not contiguous from %d", cells, shards, s, next)
				}
				next = s.Hi
				if s.Size() < min {
					min = s.Size()
				}
				if s.Size() > max {
					max = s.Size()
				}
			}
			if next != cells {
				t.Errorf("cells=%d shards=%d: plan ends at %d", cells, shards, next)
			}
			if max-min > 1 {
				t.Errorf("cells=%d shards=%d: unbalanced spans (min %d, max %d)", cells, shards, min, max)
			}
		}
	}
	if got := PlanShards(0, 4); got != nil {
		t.Errorf("empty grid plan = %v", got)
	}
}

// TestMissingSpans: gaps group into maximal contiguous spans, the
// re-dispatch set of a resumed run.
func TestMissingSpans(t *testing.T) {
	have := map[int]bool{0: true, 1: true, 4: true, 7: true}
	got := experiment.MissingCellSpans(9, func(c int) bool { return have[c] })
	want := []Span{{Lo: 2, Hi: 4}, {Lo: 5, Hi: 7}, {Lo: 8, Hi: 9}}
	if len(got) != len(want) {
		t.Fatalf("MissingCellSpans = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MissingCellSpans[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := experiment.MissingCellSpans(4, func(int) bool { return true }); len(got) != 0 {
		t.Errorf("complete grid missing spans = %v", got)
	}
	if got := experiment.MissingCellSpans(4, func(int) bool { return false }); len(got) != 1 || got[0] != (Span{Lo: 0, Hi: 4}) {
		t.Errorf("empty grid missing spans = %v", got)
	}
}

// TestPlanUnitsFreshRunMatchesPlanShards: a fresh run's dispatch plan
// is exactly the shard plan.
func TestPlanUnitsFreshRunMatchesPlanShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		units := planUnits([]Span{{Lo: 0, Hi: 12}}, shards)
		want := PlanShards(12, shards)
		if len(units) != len(want) {
			t.Fatalf("shards=%d: units %v, want %v", shards, units, want)
		}
		for i := range want {
			if units[i] != want[i] {
				t.Errorf("shards=%d: unit[%d] = %v, want %v", shards, i, units[i], want[i])
			}
		}
	}
}

// TestPlanUnitsCoversMissing: dispatch units tile the missing spans
// exactly, whatever the shard count.
func TestPlanUnitsCoversMissing(t *testing.T) {
	missing := []Span{{Lo: 2, Hi: 4}, {Lo: 6, Hi: 13}, {Lo: 20, Hi: 21}}
	for _, shards := range []int{1, 2, 4, 9} {
		units := planUnits(missing, shards)
		covered := make(map[int]int)
		for _, u := range units {
			if u.Size() <= 0 {
				t.Fatalf("shards=%d: empty unit %v", shards, u)
			}
			for c := u.Lo; c < u.Hi; c++ {
				covered[c]++
			}
		}
		total := 0
		for _, s := range missing {
			for c := s.Lo; c < s.Hi; c++ {
				if covered[c] != 1 {
					t.Errorf("shards=%d: cell %d covered %d times", shards, c, covered[c])
				}
				total++
			}
		}
		if len(covered) != total {
			t.Errorf("shards=%d: units cover %d cells outside the missing spans", shards, len(covered)-total)
		}
	}
}
