package dfg

import (
	"bytes"
	"errors"
	"testing"

	"stinspector/internal/pm"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
	"stinspector/internal/wire"
)

func snapGraph(t *testing.T) *Graph {
	t.Helper()
	el := synth.Log("snap", 24, 40, 20240924)
	l := pm.Build(el, pm.CallTopDirs{Depth: 2}, pm.BuildOptions{Endpoints: true})
	return Build(l)
}

// Encode∘decode is the identity on graphs, and the encoding is
// canonical: re-encoding the decoded graph reproduces the bytes.
func TestGraphSnapshotRoundTrip(t *testing.T) {
	g := snapGraph(t)
	enc := g.EncodeSnapshot()
	got, err := DecodeGraphSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g) {
		t.Errorf("decoded graph differs:\ngot  %s\nwant %s", got, g)
	}
	if got.traces != g.traces {
		t.Errorf("traces = %d, want %d", got.traces, g.traces)
	}
	if re := got.EncodeSnapshot(); !bytes.Equal(re, enc) {
		t.Errorf("re-encode differs: %d vs %d bytes", len(re), len(enc))
	}
}

func TestGraphSnapshotEmpty(t *testing.T) {
	got, err := DecodeGraphSnapshot(New().EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumEdges() != 0 || got.traces != 0 {
		t.Errorf("decoded empty graph has state: %s", got)
	}
}

// A decoded graph merges like any other partial.
func TestGraphSnapshotMergesAfterDecode(t *testing.T) {
	whole := snapGraph(t)
	el := synth.Log("snap", 24, 40, 20240924)
	m := pm.CallTopDirs{Depth: 2}
	mk := func(lo, hi int) *Graph {
		sub, err := trace.NewEventLog(el.Cases()[lo:hi]...)
		if err != nil {
			t.Fatal(err)
		}
		return Build(pm.Build(sub, m, pm.BuildOptions{Endpoints: true}))
	}
	a, bp := mk(0, 13), mk(13, 24)
	da, err := DecodeGraphSnapshot(a.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	db, err := DecodeGraphSnapshot(bp.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if da.Merge(db); !da.Equal(whole) || da.traces != whole.traces {
		t.Error("merge of decoded partials differs from the whole graph")
	}
}

// Truncations, range violations and structural inconsistencies yield
// CorruptError, never a panic.
func TestGraphSnapshotCorrupt(t *testing.T) {
	enc := snapGraph(t).EncodeSnapshot()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeGraphSnapshot(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	var ce *wire.CorruptError
	// Edge referencing an out-of-range dictionary id.
	var b wire.Buf
	b.Dict([]string{"a"})
	b.Uvarint(0) // traces
	b.Uvarint(1) // nodes
	b.Uvarint(0)
	b.Varint(1)
	b.Uvarint(1) // edges
	b.Uvarint(0)
	b.Uvarint(7) // out of range
	b.Varint(1)
	if _, err := DecodeGraphSnapshot(b.Bytes()); !errors.As(err, &ce) {
		t.Fatalf("out-of-range edge id: err = %v, want CorruptError", err)
	}
}
