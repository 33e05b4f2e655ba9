package archive

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"stinspector/internal/synth/profiles"
)

// FuzzArchiveV2Decode drives arbitrary bytes through NewReaderBytes and
// the streaming decode at several worker/window settings. Production
// readers decode sections zero-copy from an mmap of untrusted bytes, so
// the invariants are non-negotiable: never panic, always terminate, and
// every stream agrees with the sequential drain on both the
// error/success verdict and (on success) the decoded contents.
func FuzzArchiveV2Decode(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		var buf bytes.Buffer
		if err := WriteV2(&buf, randLog(seed, int(seed)+1, 20)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		mut := append([]byte(nil), buf.Bytes()...)
		mut[len(mut)/2] ^= 0x40
		f.Add(mut)
	}
	if p, ok := profiles.Lookup("hostileargs"); ok {
		var buf bytes.Buffer
		if err := WriteV2(&buf, p.Generate("fz", 3, 12, 20240924)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		mut := append([]byte(nil), buf.Bytes()...)
		mut[len(mut)/3] ^= 0x11
		f.Add(mut)
	}
	f.Add([]byte(magic))
	// A retired v1 image must take the ErrV1 rejection, never a decode.
	f.Add(v1Image())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReaderBytes(data)
		if err != nil {
			return
		}
		want, wantErr := readAll(r, 1)
		for _, cfg := range [][2]int{{1, 1}, {4, 2}, {3, 8}} {
			src := r.Stream(cfg[0], cfg[1])
			var events, cases int
			var streamErr error
			for {
				c, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					streamErr = err
					break
				}
				cases++
				events += c.Len()
			}
			src.Close()
			if (streamErr == nil) != (wantErr == nil) {
				t.Fatalf("workers=%d window=%d: stream err %v, drain err %v", cfg[0], cfg[1], streamErr, wantErr)
			}
			if wantErr == nil && (cases != want.NumCases() || events != want.NumEvents()) {
				t.Fatalf("workers=%d window=%d: streamed %d cases / %d events, drain %d / %d",
					cfg[0], cfg[1], cases, events, want.NumCases(), want.NumEvents())
			}
		}
		// Range slicing must stay within the same validity verdict: a
		// decodable archive slices cleanly, a corrupt one never panics.
		if wantErr == nil && want.NumCases() > 1 {
			src := r.StreamRange(1, want.NumCases(), 2, 2)
			n := 0
			for {
				c, err := src.Next()
				if err != nil {
					break
				}
				_ = c
				n++
			}
			src.Close()
			if n != want.NumCases()-1 {
				t.Fatalf("range [1,n) streamed %d cases, want %d", n, want.NumCases()-1)
			}
		}
	})
}

// Robustness: random byte blobs presented as archives through the
// ReadAt path must never panic (TestV2RandomBytes covers the zero-copy
// path), and any blob carrying the v1 magic is rejected as v1.
func TestReaderRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(400)
		blob := make([]byte, n)
		rng.Read(blob)
		// Occasionally fake the magics so deeper paths run.
		if n >= headerSize && trial%3 == 0 {
			copy(blob, magic)
		}
		if n >= headerSize && trial%7 == 0 {
			copy(blob, magicV1)
		}
		if n >= footerSize && trial%5 == 0 {
			copy(blob[n-4:], footerMagic)
		}
		r, err := newReaderAt(blob)
		if n >= headerSize && string(blob[:4]) == magicV1 && !errors.Is(err, ErrV1) {
			t.Fatalf("trial %d: v1 magic gave %v, want ErrV1", trial, err)
		}
		if err != nil {
			continue
		}
		_, _ = readAll(r, 0)
	}
}
