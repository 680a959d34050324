package scenario

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"mira/internal/cmp"
	"mira/internal/collective"
	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/topology"
	"mira/internal/traffic"
)

// Built is a traffic builder's product: the generator to drive the
// simulation, the VC policy the traffic needs (request/response traffic
// must separate classes to stay deadlock-free), and — for the
// trace-backed kinds — the trace and its generation statistics.
type Built struct {
	Gen    noc.Generator
	Policy noc.VCPolicy
	// Trace is the replayed trace ("trace" and "replay" kinds), nil for
	// synthetic traffic.
	Trace *traffic.Trace
	// Stats carries the CMP generation statistics ("trace" kind only).
	Stats cmp.Stats
	// Collective is the closed-loop dependency engine ("collective"
	// kind only); Elaborate wires its delivery callback to the Sim.
	Collective *collective.Engine
}

// Builder constructs one traffic kind. Validate (optional) checks the
// scenario's traffic parameters without elaborating a design; Build
// produces the generator against the elaborated design's topology.
type Builder struct {
	Validate func(sc Scenario) error
	Build    func(sc Scenario, d *core.Design) (Built, error)
}

var (
	trafficMu sync.RWMutex
	builders  = map[string]Builder{}
)

// RegisterTraffic adds (or replaces) a traffic kind. The built-in kinds
// are registered at init; external packages may add their own before
// elaborating scenarios that use them.
func RegisterTraffic(kind string, b Builder) {
	if kind == "" || b.Build == nil {
		panic("scenario: RegisterTraffic needs a kind name and a Build func")
	}
	trafficMu.Lock()
	defer trafficMu.Unlock()
	builders[kind] = b
}

func lookupTraffic(kind string) (Builder, bool) {
	trafficMu.RLock()
	defer trafficMu.RUnlock()
	b, ok := builders[kind]
	return b, ok
}

// TrafficKinds lists the registered kinds, sorted.
func TrafficKinds() []string {
	trafficMu.RLock()
	defer trafficMu.RUnlock()
	kinds := make([]string, 0, len(builders))
	for k := range builders {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// shortProfile is the layer-shutdown sampling profile shared by the
// synthetic kinds. Frac 0 draws nothing from the RNG, so a scenario
// without short flits is bit-identical to a generator built with no
// profile at all.
func shortProfile(sc Scenario) traffic.ShortFlitProfile {
	return traffic.ShortFlitProfile{Frac: sc.Traffic.ShortFrac, Layers: core.Layers}
}

func validateRate(sc Scenario) error {
	if sc.Traffic.Rate <= 0 {
		return fmt.Errorf("scenario: traffic kind %q needs rate > 0, got %g", sc.Traffic.Kind, sc.Traffic.Rate)
	}
	if sc.Traffic.ShortFrac < 0 || sc.Traffic.ShortFrac > 1 {
		return fmt.Errorf("scenario: short_frac = %g outside [0, 1]", sc.Traffic.ShortFrac)
	}
	return nil
}

// validateTranspose adds transpose's shape rule to validateRate: (x, y)
// maps to (y, x), so the planar fabric must be square. Every
// architecture's own floorplan is; a chip grid may not be.
func validateTranspose(sc Scenario) error {
	if err := validateRate(sc); err != nil {
		return err
	}
	if c := sc.Chips; c != nil && c.ChipsX*c.NodesX != c.ChipsY*c.NodesY {
		return fmt.Errorf("scenario: transpose needs a square fabric, chips %dx%d/%dx%d give %dx%d nodes",
			c.ChipsX, c.ChipsY, c.NodesX, c.NodesY, c.ChipsX*c.NodesX, c.ChipsY*c.NodesY)
	}
	return nil
}

func validateProtocol(p string) (cmp.Protocol, error) {
	switch p {
	case "", "mesi":
		return cmp.MESI, nil
	case "moesi":
		return cmp.MOESI, nil
	}
	return cmp.MESI, fmt.Errorf("scenario: unknown protocol %q (want \"mesi\" or \"moesi\")", p)
}

func init() {
	RegisterTraffic("ur", Builder{
		Validate: validateRate,
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			return Built{
				Gen: &traffic.Uniform{
					Topo:          d.Topo,
					InjectionRate: sc.Traffic.Rate,
					PacketSize:    core.DataPacketFlits,
					ShortFlits:    shortProfile(sc),
				},
				Policy: noc.AnyFree,
			}, nil
		},
	})

	RegisterTraffic("nuca", Builder{
		Validate: func(sc Scenario) error {
			if err := validateRate(sc); err != nil {
				return err
			}
			if sc.Traffic.BankDelay < 0 {
				return fmt.Errorf("scenario: bank_delay = %d, need >= 0", sc.Traffic.BankDelay)
			}
			return nil
		},
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			bank := sc.Traffic.BankDelay
			if bank == 0 {
				bank = 24 // request traversal + L2 bank access
			}
			return Built{
				Gen: &traffic.NUCA{
					Topo:          d.Topo,
					InjectionRate: sc.Traffic.Rate,
					RequestSize:   core.ControlPacketFlits,
					ResponseSize:  core.DataPacketFlits,
					BankDelay:     bank,
					ShortFlits:    shortProfile(sc),
				},
				Policy: noc.ByClass,
			}, nil
		},
	})

	for kind, dst := range map[string]traffic.DstFunc{
		"transpose":  traffic.Transpose,
		"complement": traffic.Complement,
		"tornado":    traffic.Tornado,
	} {
		kind, dst := kind, dst
		validate := validateRate
		if kind == "transpose" {
			validate = validateTranspose
		}
		RegisterTraffic(kind, Builder{
			Validate: validate,
			Build: func(sc Scenario, d *core.Design) (Built, error) {
				gen := &traffic.Permutation{
					Topo:          d.Topo,
					InjectionRate: sc.Traffic.Rate,
					PacketSize:    core.DataPacketFlits,
					Dst:           dst,
					Name:          kind,
				}
				if err := gen.Validate(); err != nil {
					return Built{}, err
				}
				return Built{Gen: gen, Policy: noc.AnyFree}, nil
			},
		})
	}

	RegisterTraffic("hotspot", Builder{
		Validate: func(sc Scenario) error {
			if err := validateRate(sc); err != nil {
				return err
			}
			if sc.Traffic.HotFrac <= 0 || sc.Traffic.HotFrac > 1 {
				return fmt.Errorf("scenario: hotspot needs hot_frac in (0, 1], got %g", sc.Traffic.HotFrac)
			}
			for _, id := range sc.Traffic.Hot {
				if id < 0 {
					return fmt.Errorf("scenario: hot node %d is negative", id)
				}
			}
			return nil
		},
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			var hot []topology.NodeID
			if len(sc.Traffic.Hot) > 0 {
				for _, id := range sc.Traffic.Hot {
					if id >= d.Topo.NumNodes() {
						return Built{}, fmt.Errorf("scenario: hot node %d outside %s's %d nodes",
							id, d.Arch, d.Topo.NumNodes())
					}
					hot = append(hot, topology.NodeID(id))
				}
			} else {
				// Default hot set: the chip centre of the 6-wide
				// floorplans (four nodes on the top layer; degenerates
				// to one node on 3DB's 3x3 layers).
				for _, n := range d.Topo.Nodes() {
					c := n.Coord
					if (c.X == 2 || c.X == 3) && (c.Y == 2 || c.Y == 3) && c.Z == d.Topo.ZDim-1 {
						hot = append(hot, n.ID)
					}
				}
			}
			return Built{
				Gen: &traffic.Hotspot{
					Topo:          d.Topo,
					InjectionRate: sc.Traffic.Rate,
					PacketSize:    core.DataPacketFlits,
					Hot:           hot,
					Frac:          sc.Traffic.HotFrac,
				},
				Policy: noc.AnyFree,
			}, nil
		},
	})

	RegisterTraffic("trace", Builder{
		Validate: func(sc Scenario) error {
			if _, ok := cmp.ByName(sc.Traffic.Workload); !ok {
				return fmt.Errorf("scenario: unknown workload %q", sc.Traffic.Workload)
			}
			if sc.Traffic.TraceCycles <= 0 {
				return fmt.Errorf("scenario: trace kind needs trace_cycles > 0, got %d", sc.Traffic.TraceCycles)
			}
			_, err := validateProtocol(sc.Traffic.Protocol)
			return err
		},
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			w, ok := cmp.ByName(sc.Traffic.Workload)
			if !ok {
				return Built{}, fmt.Errorf("scenario: unknown workload %q", sc.Traffic.Workload)
			}
			proto, err := validateProtocol(sc.Traffic.Protocol)
			if err != nil {
				return Built{}, err
			}
			p := cmp.DefaultParams(w, d.Topo, sc.Seed)
			p.Protocol = proto
			sys, err := cmp.NewSystem(p)
			if err != nil {
				return Built{}, err
			}
			tr, st := sys.Run(sc.Traffic.TraceCycles)
			return Built{
				Gen:    &traffic.Replayer{Trace: tr, Loop: true},
				Policy: noc.ByClass,
				Trace:  tr,
				Stats:  st,
			}, nil
		},
	})

	RegisterTraffic("collective", Builder{
		Validate: func(sc Scenario) error {
			c := sc.Traffic.Collective
			if c == nil {
				return fmt.Errorf("scenario: collective kind needs a traffic.collective block")
			}
			if _, err := collective.ParseAlgorithm(c.Algorithm); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
			if c.Participants < 0 {
				return fmt.Errorf("scenario: collective participants = %d, need >= 0 (0 = all nodes)", c.Participants)
			}
			if c.MessageFlits < 0 {
				return fmt.Errorf("scenario: collective message_flits = %d, need >= 0 (0 = %d)", c.MessageFlits, core.DataPacketFlits)
			}
			if c.Iterations < 0 {
				return fmt.Errorf("scenario: collective iterations = %d, need >= 0 (0 = 1)", c.Iterations)
			}
			if sc.Warmup != 0 {
				return fmt.Errorf("scenario: collective traffic is closed-loop and starts at cycle 0; set warmup to 0, not %d", sc.Warmup)
			}
			return nil
		},
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			c := sc.Traffic.Collective
			flits := c.MessageFlits
			if flits == 0 {
				flits = core.DataPacketFlits
			}
			eng, err := collective.New(d.Topo, collective.Params{
				Algorithm:    collective.Algorithm(c.Algorithm),
				Participants: c.Participants,
				MessageFlits: flits,
				Iterations:   c.Iterations,
			})
			if err != nil {
				return Built{}, err
			}
			return Built{Gen: eng, Policy: noc.AnyFree, Collective: eng}, nil
		},
	})

	RegisterTraffic("replay", Builder{
		Validate: func(sc Scenario) error {
			if sc.Traffic.TraceFile == "" {
				return fmt.Errorf("scenario: replay kind needs trace_file")
			}
			return nil
		},
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			f, err := os.Open(sc.Traffic.TraceFile)
			if err != nil {
				return Built{}, err
			}
			defer f.Close()
			tr, err := traffic.ReadTrace(f)
			if err != nil {
				return Built{}, fmt.Errorf("scenario: %s: %w", sc.Traffic.TraceFile, err)
			}
			for _, e := range tr.Events {
				if int(e.Src) >= d.Topo.NumNodes() || int(e.Dst) >= d.Topo.NumNodes() {
					return Built{}, fmt.Errorf("scenario: trace node outside %s's %d nodes (trace recorded for another arch?)",
						d.Arch, d.Topo.NumNodes())
				}
			}
			return Built{
				Gen:    &traffic.Replayer{Trace: tr, Loop: true},
				Policy: noc.ByClass,
				Trace:  tr,
			}, nil
		},
	})
}
