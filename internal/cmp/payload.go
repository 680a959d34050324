package cmp

import (
	"math/rand"

	"mira/internal/core"
	"mira/internal/traffic"
)

// Payload synthesis. Data packets carry one 64 B cache line as 4 flits
// of 4 words each; word values are drawn from the workload's frequent-
// pattern profile so that the layer-shutdown detector (internal/core)
// sees realistic redundancy. Control packets carry a line address plus
// small metadata, which fits in the top layer's word: address/coherence
// flits are the "short address flits" of §1.

// wordsPerFlit matches core.WordBits on a 128-bit flit.
const wordsPerFlit = 4

// flitsPerLine is a 64 B line over 128-bit flits.
const flitsPerLine = 4

// freqPatternWords are representative non-zero frequent patterns
// (repeated bytes, sign-extended halfwords) from the Alameldeen & Wood
// taxonomy. They compress well but are not all-0/all-1, so they do NOT
// count as redundant for layer shutdown.
var freqPatternWords = []uint32{
	0x00000041, 0x0000ff13, 0x7f7f7f7f, 0x20202020, 0x00010001,
}

// sampleWord draws one payload word and reports its pattern class.
func sampleWord(p traffic.PatternProfile, rng *rand.Rand) (uint32, traffic.WordPattern) {
	pat := p.SampleWord(rng)
	switch pat {
	case traffic.PatternZero:
		return 0, pat
	case traffic.PatternOne:
		return ^uint32(0), pat
	case traffic.PatternFreq:
		return freqPatternWords[rng.Intn(len(freqPatternWords))], pat
	default:
		// Irregular data: re-draw until neither all-0 nor all-1 (the
		// probability of hitting either is ~2^-31).
		for {
			v := rng.Uint32()
			if v != 0 && v != ^uint32(0) {
				return v, pat
			}
		}
	}
}

// drawLine synthesizes one cache line into line, counting word
// patterns into counts, and writes each flit's active layer count
// (core.ActiveLayers) into layers, which must hold flitsPerLine entries.
func drawLine(p traffic.PatternProfile, rng *rand.Rand, counts *[traffic.NumPatterns]int64,
	line *[flitsPerLine][wordsPerFlit]uint32, layers []uint8) {
	for f := range line {
		for w := range line[f] {
			v, pat := sampleWord(p, rng)
			line[f][w] = v
			counts[pat]++
		}
		layers[f] = core.ActiveLayers(line[f][:])
	}
}

// controlLayers is the layer vector of every address/coherence packet:
// its one flit holds the 32-bit line address in the top-layer word and
// zeros above, so it is always short. Packets share it read-only.
var controlLayers = []uint8{1}

// layerArenaChunk is how many per-flit layer counts one arena chunk
// holds.
const layerArenaChunk = 4096

// layerArena hands out per-packet layer slices carved from shared
// chunks, so a trace's layer vectors cost one allocation per chunk
// rather than one per packet. Each slice is capped at its own length,
// so appending to it reallocates instead of overwriting a neighbour.
type layerArena struct{ free []uint8 }

// alloc returns a zeroed n-entry slice owned by the caller.
func (a *layerArena) alloc(n int) []uint8 {
	if len(a.free) < n {
		a.free = make([]uint8, max(n, layerArenaChunk))
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}
