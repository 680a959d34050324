package cmp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"mira/internal/noc"
	"mira/internal/topology"
	"mira/internal/traffic"
)

// MsgKind classifies coherence messages for the Figure 2 packet-type
// distribution.
type MsgKind uint8

// Message kinds. GetS/GetX/Upgrade/Inv/Fwd/Ack are single-flit control
// packets; Data and WriteBack carry a cache line.
const (
	KindGetS MsgKind = iota
	KindGetX
	KindUpgrade
	KindInv
	KindFwd
	KindAck
	KindData
	KindWriteBack
	NumKinds
)

var kindNames = [...]string{"GetS", "GetX", "Upgrade", "Inv", "Fwd", "Ack", "Data", "WriteBack"}

func (k MsgKind) String() string { return kindNames[k] }

// IsData reports whether the message carries a full cache line.
func (k MsgKind) IsData() bool { return k == KindData || k == KindWriteBack }

// Params configures a CMP trace generation run.
type Params struct {
	Workload Workload
	// Topo supplies the CPU and cache-bank node placement (Figure 10
	// layouts); it must have 8 CPUs and 28 caches.
	Topo *topology.Topology
	Seed int64
	// ReqNetLat approximates the network traversal a request sees
	// before reaching its home bank (the trace is generated open-loop,
	// exactly like the paper's Simics-then-NoC methodology). BankLat
	// and MemLat are the L2 bank and DRAM access times of Table 4.
	ReqNetLat int64
	BankLat   int64
	MemLat    int64
	// MaxOutstanding bounds in-flight misses per CPU (Table 4: 16).
	MaxOutstanding int
	// Protocol selects MESI (the paper's protocol, the zero value) or
	// MOESI.
	Protocol Protocol
}

// DefaultParams returns the Table 4 configuration for a workload.
func DefaultParams(w Workload, topo *topology.Topology, seed int64) Params {
	return Params{
		Workload: w, Topo: topo, Seed: seed,
		ReqNetLat: 20, BankLat: 4, MemLat: 400, MaxOutstanding: 16,
	}
}

// Stats summarizes one generation run.
type Stats struct {
	Accesses, L1Hits, L1Misses int64
	Upgrades                   int64
	KindCounts                 [NumKinds]int64
	WordCounts                 [traffic.NumPatterns]int64
	ShortFlits, TotalFlits     int64
}

// ShortFlitPct returns the percentage of generated flits that need only
// the top layer (Figure 13 (a)).
func (s *Stats) ShortFlitPct() float64 {
	if s.TotalFlits == 0 {
		return 0
	}
	return 100 * float64(s.ShortFlits) / float64(s.TotalFlits)
}

// ControlPacketFrac returns the fraction of packets that are control
// (address/coherence) packets — the Figure 2 quantity.
func (s *Stats) ControlPacketFrac() float64 {
	var ctrl, total int64
	for k := MsgKind(0); k < NumKinds; k++ {
		total += s.KindCounts[k]
		if !k.IsData() {
			ctrl += s.KindCounts[k]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ctrl) / float64(total)
}

// WordPatternShares returns Figure 1's per-pattern word fractions.
func (s *Stats) WordPatternShares() map[traffic.WordPattern]float64 {
	var total int64
	for _, c := range s.WordCounts {
		total += c
	}
	out := make(map[traffic.WordPattern]float64)
	if total == 0 {
		return out
	}
	for p := traffic.WordPattern(0); p < traffic.NumPatterns; p++ {
		out[p] = float64(s.WordCounts[p]) / float64(total)
	}
	return out
}

// System simulates the NUCA memory hierarchy of §4.1.2 and records the
// coherence traffic it generates.
type System struct {
	p         Params
	rng       *rand.Rand
	l1s       []*L1
	dirs      map[topology.NodeID]*Directory
	cpuNodes  []topology.NodeID
	bankNodes []topology.NodeID
	trace     *traffic.Trace
	stats     Stats

	outstanding [][]int64 // per-CPU completion times
	nextRetire  []int64   // per-CPU earliest completion time in outstanding
	seqPtr      []uint32  // per-CPU sequential stream position
	recent      []reuseWindow

	// Emission window (DESIGN.md §1, "Trace emission order"): every
	// message issued during cycle now lands in [now, now+window].
	// pending is a power-of-two ring of per-cycle buckets; Run moves
	// bucket now into the trace once cycle now ends, so the trace
	// comes out time-ordered.
	now     int64
	window  int64
	pending [][]traffic.Event

	line   [flitsPerLine][wordsPerFlit]uint32 // payload scratch
	layers layerArena
}

// maxWindow bounds the emission window 2·ReqNetLat + BankLat + MemLat,
// and with it the bucket ring NewSystem allocates.
const maxWindow = 1 << 16

// NewSystem validates the parameters and builds a system.
func NewSystem(p Params) (*System, error) {
	cpus, banks := p.Topo.CPUs(), p.Topo.Caches()
	if len(cpus) == 0 || len(banks) == 0 {
		return nil, fmt.Errorf("cmp: topology lacks CPU/cache layout (%d cpus, %d banks)", len(cpus), len(banks))
	}
	if len(cpus) > 16 {
		return nil, fmt.Errorf("cmp: directory sharer mask supports <= 16 CPUs, have %d", len(cpus))
	}
	if err := p.Workload.Patterns.Validate(); err != nil {
		return nil, err
	}
	if p.MaxOutstanding < 1 {
		return nil, fmt.Errorf("cmp: MaxOutstanding = %d", p.MaxOutstanding)
	}
	for _, l := range []struct {
		name string
		v    int64
	}{{"ReqNetLat", p.ReqNetLat}, {"BankLat", p.BankLat}, {"MemLat", p.MemLat}} {
		if l.v < 0 || l.v > maxWindow {
			return nil, fmt.Errorf("cmp: %s = %d, need 0..%d", l.name, l.v, maxWindow)
		}
	}
	window := 2*p.ReqNetLat + p.BankLat + p.MemLat
	if window > maxWindow {
		return nil, fmt.Errorf("cmp: emission window 2*ReqNetLat+BankLat+MemLat = %d cycles exceeds %d", window, maxWindow)
	}
	s := &System{
		p:           p,
		rng:         rand.New(rand.NewSource(p.Seed)),
		cpuNodes:    cpus,
		bankNodes:   banks,
		dirs:        make(map[topology.NodeID]*Directory, len(banks)),
		trace:       &traffic.Trace{Name: p.Workload.Name},
		outstanding: make([][]int64, len(cpus)),
		nextRetire:  make([]int64, len(cpus)),
		seqPtr:      make([]uint32, len(cpus)),
		recent:      make([]reuseWindow, len(cpus)),
		window:      window,
		pending:     make([][]traffic.Event, 1<<bits.Len64(uint64(window))),
	}
	for i := 0; i < len(cpus); i++ {
		s.l1s = append(s.l1s, &L1{})
	}
	for _, b := range banks {
		s.dirs[b] = NewDirectory()
	}
	return s, nil
}

// bankOf maps a line address to its home bank node: SNUCA places sets
// statically by the low-order bits of the address (§4.1.2).
func (s *System) bankOf(addr uint32) topology.NodeID {
	return s.bankNodes[int(addr)%len(s.bankNodes)]
}

// Address-space layout: each CPU has a private region; a common shared
// region drives coherence traffic.
const sharedBase uint32 = 0xE000000

func (s *System) privateBase(cpu int) uint32 { return uint32(cpu+1) << 20 }

// genAddr draws the next line address for a CPU: temporal re-reference
// of a recent line, a shared-region access, a sequential step, or a
// random touch of the private working set.
func (s *System) genAddr(cpu int) uint32 {
	w := &s.p.Workload
	if u := s.rng.Float64(); u < w.ReuseFrac {
		if addr, ok := s.recent[cpu].sample(s.rng); ok {
			return addr
		}
	}
	var addr uint32
	u := s.rng.Float64()
	switch {
	case u < w.SharedFrac:
		addr = sharedBase + uint32(s.rng.Intn(w.SharedLines))
	case u < w.SharedFrac+w.SeqFrac:
		s.seqPtr[cpu] = (s.seqPtr[cpu] + 1) % uint32(w.WorkingSetLines)
		addr = s.privateBase(cpu) + s.seqPtr[cpu]
	default:
		addr = s.privateBase(cpu) + uint32(s.rng.Intn(w.WorkingSetLines))
	}
	s.recent[cpu].push(addr)
	return addr
}

// emit records one message in its cycle's bucket. A data message
// draws its cache line before the bank-local check, so it consumes the
// same RNG draws whether or not it crosses the network; a control
// message carries one short address flit.
func (s *System) emit(cycle int64, kind MsgKind, src, dst topology.NodeID) {
	e := traffic.Event{Cycle: cycle, Src: src, Dst: dst, Size: ControlFlits, Class: noc.Control, Layers: controlLayers}
	if kind.IsData() {
		e.Size, e.Class, e.Layers = DataFlits, noc.Data, s.layers.alloc(flitsPerLine)
		drawLine(s.p.Workload.Patterns, s.rng, &s.stats.WordCounts, &s.line, e.Layers)
	}
	if src == dst {
		return // bank-local access, no network message
	}
	if cycle < s.now || cycle > s.now+s.window {
		panic(fmt.Sprintf("cmp: %v message at cycle %d outside the emission window [%d, %d]",
			kind, cycle, s.now, s.now+s.window))
	}
	b := &s.pending[cycle&int64(len(s.pending)-1)]
	*b = append(*b, e)
	s.stats.KindCounts[kind]++
	for _, l := range e.Layers {
		s.stats.TotalFlits++
		if l == 1 {
			s.stats.ShortFlits++
		}
	}
}

// read handles an L1 load miss: GetS to the home bank, then either a
// bank response or a cache-to-cache forward from the modified owner.
func (s *System) read(cycle int64, cpu int, addr uint32) int64 {
	cpuNode := s.cpuNodes[cpu]
	bank := s.bankOf(addr)
	s.emit(cycle, KindGetS, cpuNode, bank)
	t := cycle + s.p.ReqNetLat
	e := s.dirs[bank].Entry(addr)

	var respAt int64
	if e.owner >= 0 && int(e.owner) != cpu {
		// Dirty copy elsewhere: forward; the owner supplies the data to
		// the requester. Under MESI it downgrades to Shared and writes
		// back immediately; under MOESI it keeps ownership in the
		// Owned state and the write-back waits for its eviction.
		ownerNode := s.cpuNodes[e.owner]
		s.emit(t, KindFwd, bank, ownerNode)
		if s.p.Protocol == MOESI {
			s.l1s[e.owner].SetState(addr, Owned)
			e.addSharer(int(e.owner))
		} else {
			s.l1s[e.owner].SetState(addr, Shared)
			s.emit(t+s.p.ReqNetLat, KindWriteBack, ownerNode, bank)
			e.addSharer(int(e.owner))
			e.owner = -1
		}
		s.emit(t+s.p.ReqNetLat, KindData, ownerNode, cpuNode)
		respAt = t + 2*s.p.ReqNetLat
	} else {
		lat := s.p.BankLat
		if s.rng.Float64() < s.p.Workload.L2MissFrac {
			lat += s.p.MemLat
		}
		s.emit(t+lat, KindData, bank, cpuNode)
		respAt = t + lat + s.p.ReqNetLat
	}

	state := Shared
	if e.sharers == 0 && e.owner < 0 {
		state = Exclusive
		e.owner = int8(cpu)
	}
	e.addSharer(cpu)
	s.fill(cycle, cpu, addr, state)
	return respAt
}

// write handles a store that is not an L1 M/E hit: an upgrade from S, or
// a full write miss.
func (s *System) write(cycle int64, cpu int, addr uint32, st LineState) int64 {
	cpuNode := s.cpuNodes[cpu]
	bank := s.bankOf(addr)
	e := s.dirs[bank].Entry(addr)
	t := cycle + s.p.ReqNetLat

	kind := KindGetX
	if st == Shared || st == Owned {
		kind = KindUpgrade
		s.stats.Upgrades++
	}
	s.emit(cycle, kind, cpuNode, bank)

	var respAt int64
	if e.owner >= 0 && int(e.owner) != cpu {
		// Dirty elsewhere: forward; ownership transfers cache-to-cache.
		ownerNode := s.cpuNodes[e.owner]
		s.emit(t, KindFwd, bank, ownerNode)
		s.l1s[e.owner].SetState(addr, Invalid)
		s.emit(t+s.p.ReqNetLat, KindData, ownerNode, cpuNode)
		respAt = t + 2*s.p.ReqNetLat
	} else {
		// Invalidate all other sharers; they ack to the requester.
		for m := e.sharers; m != 0; m &= m - 1 {
			sh := bits.TrailingZeros16(m)
			if sh == cpu {
				continue
			}
			shNode := s.cpuNodes[sh]
			s.emit(t, KindInv, bank, shNode)
			s.l1s[sh].SetState(addr, Invalid)
			s.emit(t+s.p.ReqNetLat, KindAck, shNode, cpuNode)
		}
		if st == Shared || st == Owned {
			// Upgrade: data already present, the bank grants ownership.
			s.emit(t+s.p.BankLat, KindAck, bank, cpuNode)
			respAt = t + s.p.BankLat + s.p.ReqNetLat
		} else {
			lat := s.p.BankLat
			if s.rng.Float64() < s.p.Workload.L2MissFrac {
				lat += s.p.MemLat
			}
			s.emit(t+lat, KindData, bank, cpuNode)
			respAt = t + lat + s.p.ReqNetLat
		}
	}

	e.clearAll()
	e.owner = int8(cpu)
	e.addSharer(cpu)
	if st == Shared || st == Owned {
		s.l1s[cpu].SetState(addr, Modified)
	} else {
		s.fill(cycle, cpu, addr, Modified)
	}
	return respAt
}

// fill installs a line into the L1 and handles the victim: Modified
// victims write back over the network, clean victims notify their
// directory silently (state tracked here directly).
func (s *System) fill(cycle int64, cpu int, addr uint32, st LineState) {
	victim, vState := s.l1s[cpu].Fill(addr, st)
	if vState == Invalid {
		return
	}
	vBank := s.bankOf(victim)
	ve := s.dirs[vBank].Entry(victim)
	ve.clearSharer(cpu)
	if int(ve.owner) == cpu {
		ve.owner = -1
	}
	if vState.Dirty() {
		s.emit(cycle, KindWriteBack, s.cpuNodes[cpu], vBank)
	}
}

// Run executes the CPUs for the given number of cycles and returns the
// recorded trace (time-ordered; equal cycles in generation order) plus
// statistics. The trace includes the responses still in flight when
// the last cycle ends.
func (s *System) Run(cycles int64) (*traffic.Trace, Stats) {
	w := &s.p.Workload
	for cycle := int64(0); cycle < cycles; cycle++ {
		s.now = cycle
		for cpu := range s.l1s {
			// Retire completed misses once the earliest is due.
			if cycle >= s.nextRetire[cpu] {
				out := s.outstanding[cpu][:0]
				next := int64(math.MaxInt64)
				for _, t := range s.outstanding[cpu] {
					if t > cycle {
						out = append(out, t)
						next = min(next, t)
					}
				}
				s.outstanding[cpu] = out
				s.nextRetire[cpu] = next
			}
			if len(s.outstanding[cpu]) >= s.p.MaxOutstanding {
				continue
			}
			if s.rng.Float64() >= w.Intensity {
				continue
			}
			s.stats.Accesses++
			addr := s.genAddr(cpu)
			isRead := s.rng.Float64() < w.ReadFrac
			st := s.l1s[cpu].Lookup(addr)

			switch {
			case isRead && st != Invalid:
				s.stats.L1Hits++
			case !isRead && (st == Modified || st == Exclusive):
				s.stats.L1Hits++
				s.l1s[cpu].SetState(addr, Modified)
			case isRead:
				s.stats.L1Misses++
				s.track(cpu, s.read(cycle, cpu, addr))
			default:
				s.stats.L1Misses++
				s.track(cpu, s.write(cycle, cpu, addr, st))
			}
		}
		s.flush(cycle)
	}
	for c := cycles; c < cycles+s.window; c++ {
		s.flush(c)
	}
	return s.trace, s.stats
}

// track records an outstanding miss that completes at cycle done.
func (s *System) track(cpu int, done int64) {
	s.outstanding[cpu] = append(s.outstanding[cpu], done)
	s.nextRetire[cpu] = min(s.nextRetire[cpu], done)
}

// flush appends cycle's bucket to the trace and empties it for reuse
// by cycle + len(pending).
func (s *System) flush(cycle int64) {
	b := &s.pending[cycle&int64(len(s.pending)-1)]
	s.trace.Events = append(s.trace.Events, *b...)
	*b = (*b)[:0]
}

// GenerateTrace is the one-call convenience used by experiments and the
// tracegen example.
func GenerateTrace(w Workload, topo *topology.Topology, cycles, seed int64) (*traffic.Trace, Stats, error) {
	sys, err := NewSystem(DefaultParams(w, topo, seed))
	if err != nil {
		return nil, Stats{}, err
	}
	tr, st := sys.Run(cycles)
	return tr, st, nil
}
