package faults

import "encoding/binary"

// Corruption enumerates ways to damage a persisted model artifact for
// corrupt-reload chaos. Each maps to a distinct typed persist error, so
// the chaos suite can prove the reload API's whole failure taxonomy.
type Corruption int

// Corruption modes.
const (
	// WrongMagic overwrites the magic header (persist.ErrBadMagic).
	WrongMagic Corruption = iota
	// FutureVersion bumps the format version (persist.ErrVersion).
	FutureVersion
	// Truncate cuts the file mid-payload (persist.ErrTruncated).
	Truncate
	// FlipBit flips one payload bit (persist.ErrChecksum).
	FlipBit
)

// Corrupt returns a damaged copy of a persist envelope; data itself is
// never modified. The damage is deterministic — no randomness — so a
// corrupt-reload chaos run is reproducible byte for byte.
func Corrupt(data []byte, c Corruption) []byte {
	out := append([]byte(nil), data...)
	switch c {
	case WrongMagic:
		copy(out, "NOTMODEL")
	case FutureVersion:
		// The u32 format version sits right after the 8-byte magic.
		if len(out) >= 12 {
			binary.BigEndian.PutUint32(out[8:], binary.BigEndian.Uint32(out[8:])+1)
		}
	case Truncate:
		out = out[:len(out)/2]
	case FlipBit:
		// Flip a bit in the middle: lands in the gob payload for any real
		// model, far from the length-prefixed structure.
		out[len(out)/2] ^= 0x01
	}
	return out
}
