package faults

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"github.com/goetsc/goetsc/internal/persist"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// persistStub is a minimal gob-encodable classifier so the corruption
// tests can build a real persist envelope without training anything.
type persistStub struct{ K int }

func (s *persistStub) Name() string                    { return "STUB" }
func (s *persistStub) Fit(*ts.Dataset) error           { return nil }
func (s *persistStub) Classify(ts.Instance) (int, int) { return s.K, 1 }

// TestCorruptMapsToPersistTaxonomy proves each Corruption mode lands on
// its promised typed persist error — the mapping the reload API's
// failure taxonomy (and its chaos tests) relies on — and that the
// damage is deterministic and leaves the input untouched.
func TestCorruptMapsToPersistTaxonomy(t *testing.T) {
	gob.Register(&persistStub{})
	var env bytes.Buffer
	if err := persist.Save(&env, &persistStub{K: 3}, persist.Meta{Dataset: "synthetic"}); err != nil {
		t.Fatalf("save stub envelope: %v", err)
	}

	cases := []struct {
		mode Corruption
		want error
	}{
		{WrongMagic, persist.ErrBadMagic},
		{FutureVersion, persist.ErrVersion},
		{Truncate, persist.ErrTruncated},
		{FlipBit, persist.ErrChecksum},
	}
	for _, tc := range cases {
		before := append([]byte(nil), env.Bytes()...)
		bad := Corrupt(env.Bytes(), tc.mode)
		if !bytes.Equal(env.Bytes(), before) {
			t.Fatalf("mode %d mutated its input", tc.mode)
		}
		if again := Corrupt(env.Bytes(), tc.mode); !bytes.Equal(bad, again) {
			t.Fatalf("mode %d is not deterministic", tc.mode)
		}
		if _, _, err := persist.Load(bytes.NewReader(bad)); !errors.Is(err, tc.want) {
			t.Fatalf("mode %d: Load = %v, want %v", tc.mode, err, tc.want)
		}
	}

	// The undamaged envelope still loads — the baseline the modes damage.
	model, _, err := persist.Load(bytes.NewReader(env.Bytes()))
	if err != nil {
		t.Fatalf("pristine envelope failed to load: %v", err)
	}
	if label, _ := model.Classify(ts.Instance{Values: [][]float64{{0}}}); label != 3 {
		t.Fatalf("round-tripped stub answers %d, want 3", label)
	}
}
