package core

// Analysis-side allocation gate over the adversarial generator
// profiles: TestAnalyzeAllocBudget measures only the friendly synth
// shape, but the fold's per-event costs must also stay pinned when the
// inputs turn hostile. Every analysis run owns fresh scoped symbol
// tables, so what remains is proportional to vocabulary, not events:
//
//   - hostileargs (pathological strings, tiny vocabulary) folds at
//     ~0.06 allocs/event — string content is irrelevant to the
//     symbolized fold, so it shares the friendly shape's 0.25 ceiling.
//   - heavytail (Zipf path vocabulary, ~half the events touch one-off
//     paths) folds at ~0.27 allocs/event: first-sight interning of each
//     distinct path and activity. Path truncation allocates nothing and
//     a case's behavior subjects are counted in one reused tally, so
//     the 0.5 ceiling leaves no room for a per-event allocation.
//   - multitenant (nearly every event a distinct (call, path) pair)
//     folds at ~0.95 allocs/event: the activity-name concatenation of
//     each distinct pair's first sight. The 1.25 ceiling pins it.

import (
	"testing"

	"stinspector/internal/pm"
	"stinspector/internal/source"
	"stinspector/internal/synth/profiles"
)

func TestAnalyzeAllocBudgetProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	for _, tc := range []struct {
		profile string
		ceiling float64
	}{
		{"hostileargs", 0.25},
		{"heavytail", 0.5},
		{"multitenant", 1.25},
	} {
		t.Run(tc.profile, func(t *testing.T) {
			p, ok := profiles.Lookup(tc.profile)
			if !ok {
				t.Fatalf("profile %s missing", tc.profile)
			}
			el := p.Generate("alloca", 24, 2000, 11)
			m := pm.CallTopDirs{Depth: 2}
			// Warm: table growth, pool population.
			src := source.FromLog(el)
			if _, err := AnalyzeStreamParallel(src, m, 1, true); err != nil {
				t.Fatal(err)
			}
			src.Close()
			checkAnalyzeAllocBudgetCeiling(t, el, m, tc.ceiling)
		})
	}
}
