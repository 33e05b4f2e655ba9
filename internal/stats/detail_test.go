package stats

import (
	"testing"
	"time"

	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

func distLog(t *testing.T) *trace.EventLog {
	t.Helper()
	// 19 fast reads of 1ms and one slow read of 100ms: a contention
	// spike signature.
	var evs []trace.Event
	for i := 0; i < 19; i++ {
		evs = append(evs, trace.Event{
			Call: "read", FP: "/f",
			Start: time.Duration(i) * 10 * time.Millisecond,
			Dur:   time.Millisecond, Size: 100,
		})
	}
	evs = append(evs, trace.Event{
		Call: "read", FP: "/f",
		Start: 200 * time.Millisecond, Dur: 100 * time.Millisecond, Size: 100,
	})
	return trace.MustNewEventLog(trace.NewCase(trace.CaseID{CID: "d", Host: "h", RID: 1}, evs))
}

// detailOf folds an event-log's cases into a Detail under m.
func detailOf(el *trace.EventLog, m pm.Mapping) *Detail {
	d := NewDetail(m)
	for _, c := range el.Cases() {
		d.Add(c)
	}
	return d
}

func TestComputeDistribution(t *testing.T) {
	det := detailOf(distLog(t), callMapping())
	d, ok := det.Distribution("read")
	if !ok {
		t.Fatalf("no distribution")
	}
	if d.Events != 20 {
		t.Errorf("events = %d", d.Events)
	}
	if d.Min != time.Millisecond || d.Max != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", d.Min, d.Max)
	}
	if d.P50 != time.Millisecond {
		t.Errorf("p50 = %v", d.P50)
	}
	if d.Total != 119*time.Millisecond {
		t.Errorf("total = %v", d.Total)
	}
	// The single slow event carries 100/119 ≈ 0.84 of the time.
	if d.TailShare < 0.8 || d.TailShare > 0.9 {
		t.Errorf("tail share = %v", d.TailShare)
	}
	if _, ok := det.Distribution("absent"); ok {
		t.Errorf("absent activity produced a distribution")
	}
}

func TestPerCase(t *testing.T) {
	el := mkLog(t, map[int][]trace.Event{
		1: {
			{Call: "read", FP: "/f", Start: 0, Dur: 10 * time.Millisecond, Size: 100},
			{Call: "write", FP: "/g", Start: time.Second, Dur: time.Millisecond, Size: 50},
		},
		2: {
			{Call: "read", FP: "/f", Start: 0, Dur: 50 * time.Millisecond, Size: 100},
		},
	})
	det := detailOf(el, callMapping())
	// Per-activity view.
	per := det.PerCase("read")
	if len(per) != 2 {
		t.Fatalf("per = %v", per)
	}
	// Sorted by descending duration: rid 2 (the straggler) first.
	if per[0].Case.RID != 2 || per[0].TotalDur != 50*time.Millisecond {
		t.Errorf("straggler = %+v", per[0])
	}
	if per[1].Events != 1 || per[1].Bytes != 100 {
		t.Errorf("per[1] = %+v", per[1])
	}
	// Whole-log view.
	all := det.PerCase("")
	if len(all) != 2 || all[1].Case.RID != 1 || all[1].Events != 2 {
		t.Errorf("all = %+v", all)
	}
}
