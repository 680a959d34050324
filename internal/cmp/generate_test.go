package cmp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"mira/internal/core"
)

// traceGolden pins the SHA-256 of every generated trace (each event's
// cycle, src, dst, size, class and per-flit layers) followed by the
// run's Stats, for seed goldenSeed over goldenCycles cycles. Any change
// to the RNG draw order, the coherence model, payload synthesis or the
// event order changes a digest. 2DB and 3DM share the 6x6 NUCA
// placement, so their digests agree; 3DB's 3x3x4 placement differs.
var traceGolden = map[string]string{
	"tpcw/2DB/MESI":        "6f791c35b22bfc9bfe9187f996406fabe41e9d97d8906540abcd6640c7220521",
	"sjbb/2DB/MESI":        "cf7628c188950eb9ab3f19f47ee7043a0d13038843d389bd3dd44bf96384aab4",
	"apache/2DB/MESI":      "67998ec9bb6d1cd8c2bf02ffb852716867e4262e4e8b6fe69959c23928e34290",
	"zeus/2DB/MESI":        "7b03c121faebf5b4f15ed55f3a375c9d326c0ad761f12f661ca9c3454fa2618f",
	"barnes/2DB/MESI":      "c7aeee58918a5477a724f8d6e6da13a6b43e2fb2c01b6ae5e7bc04fd99865e99",
	"ocean/2DB/MESI":       "c9b32328d0aae107e6483c4ee9b11e131b4cb07737875734b12b4dad4b57663e",
	"apsi/2DB/MESI":        "c636bda7b85969d452ae6768eb9c6deaa0115fb0560acbc14ceb650e2de4bfc5",
	"art/2DB/MESI":         "3e66dcaae5657b7cbee35362b268af56dc7bbf562d2c2bea4a6ce3f78bf8d88c",
	"swim/2DB/MESI":        "d9a9cc570dd051f9cab98d3965e156e0f54e5db4b576b0a6ce86f9120e8e17d8",
	"mgrid/2DB/MESI":       "6e27c23f2b3a471335a13f93cbaccaf0c440ab642ba4de923bad4f4dd14e7197",
	"multimedia/2DB/MESI":  "a92f0047e0d000b92afb3c070d4dd4e018d5a082ad7cf53ce9b4ee63867d79bb",
	"tpcw/2DB/MOESI":       "b1b8957a6a795de138c002577bc3831640dd25a3ec9d32c7c2b83d8da19795d8",
	"sjbb/2DB/MOESI":       "c970a73a9886fb178dcd84769960eeef16e4474521efdff14a55f12f90752b67",
	"apache/2DB/MOESI":     "9a286c685933365fc5661daffc70a43ae5568450dc737fb0bd9f053763c099ff",
	"zeus/2DB/MOESI":       "01957abf8e77cffdc7f1a13e1421a080d84db2ca4f7038af7c2082046c3afe95",
	"barnes/2DB/MOESI":     "488f3d8592341893aa5cbb588ed63b41f548abe947c7146276fd5ca2a497799a",
	"ocean/2DB/MOESI":      "1baa1d364eeab64592fef4bdb9ee20ba64db63d04476ad5f8294332294e4e514",
	"apsi/2DB/MOESI":       "ecda41bda64e5b6ab2c29a143d17b62a9e6068e431c7095f78a47ac93e1ca10e",
	"art/2DB/MOESI":        "6c228c9f10487e67bda5713f28b8dc6cf4709cadffcdb312061728aacab1cf4d",
	"swim/2DB/MOESI":       "b55637fcb370ff394322ac30641bb16a0633ece0f3c155df49be4623ba1730da",
	"mgrid/2DB/MOESI":      "e96014f0dc7fc8ee2e795acf0ed10ac71f727f778097512eea69c5ca420ff925",
	"multimedia/2DB/MOESI": "f36d9b6bc98a39f1a15184501dd57eb26770895b75dd0e1e486ad1be4cd3b3c4",
	"tpcw/3DB/MESI":        "74579e896ba38cffbea3e826f4ae27368370197215447e4a6e7d6beb11725764",
	"sjbb/3DB/MESI":        "9b6fc18d08ae2b26044157afc0b69a805574d2f5376adcacf723f6431d520273",
	"apache/3DB/MESI":      "4f0a83becd34657188a25af2d6436024db30153989ad4f8e4cdf552ccf8613ea",
	"zeus/3DB/MESI":        "b0f9f3294c30155ca65534a545197565fd64633d2b40574d4a60ea7133a595a6",
	"barnes/3DB/MESI":      "8e6e19ce2b0f69bc0b9dce9a24a65a8160d8a806f6b655461fa5e9aabfdf7e2b",
	"ocean/3DB/MESI":       "ebee03c2e638c6cc5c77f04b638216f4275890c6a233090ff8bb14d518b42878",
	"apsi/3DB/MESI":        "1078bc2629ed1ea7ba7fd39d4f618f57ccd25f654267169e2278f75ff6558405",
	"art/3DB/MESI":         "1673f8c4e836de6789743cf388bda9a56ca3dc1fa3c82bc351888d07d061941b",
	"swim/3DB/MESI":        "d03c2f41dcc8dfe10551cefa2dc0aca32075b4169468f3c25c8da7c05752e981",
	"mgrid/3DB/MESI":       "858dd21e69a5bc0383044e38814adf8604854f93bf13b773f2c6975a5b6d6607",
	"multimedia/3DB/MESI":  "00ff36c16488451b60dffe14f6b9cda7b686e4344e0eaf9e05d02db3c876e5d9",
	"tpcw/3DB/MOESI":       "50b92f66f911d0f7c1b431f4565a02ad0d167cd4a9bb7bba3408937bb7f93bfb",
	"sjbb/3DB/MOESI":       "d57fa986ee99ab42e9c5bfc7eb38834231c858e70772889603c9539665cb4562",
	"apache/3DB/MOESI":     "81abeb3197ee5b535c34bfe111de7c9322f283c1704ef74d7b66e4ba59328976",
	"zeus/3DB/MOESI":       "222c3ac73bcf85747cc235349f7c4faa2b2600d316ecd9d8320746f2600605d8",
	"barnes/3DB/MOESI":     "71304806c8db512401ae86e90a088fcf23e2cd05c07001fbc0ebd3c337714cbf",
	"ocean/3DB/MOESI":      "d29f8e0263822ba59b50b2d64dabbe473d91102fb0c89a39266401d25b378980",
	"apsi/3DB/MOESI":       "1ad5452ccddcdbefaf839ff251b981a5265b31b701951c3f3288cfce0c35e987",
	"art/3DB/MOESI":        "2b9747b00a7fce3435d284720f14b89907b55c96e49bf82d2fbad7826edbfc8f",
	"swim/3DB/MOESI":       "f7b211631f736983224f98d592d07f0204b78e5a2a4b8ecccd0ebd4459b64205",
	"mgrid/3DB/MOESI":      "70ce03d418b691fa2aaac93cc544fb68284dd5e0c6d36a282ccd89100a7a338c",
	"multimedia/3DB/MOESI": "c232dd4f9404ba20bc2c94b60a42dfd400d94c46e762524c5564cc49707a7582",
	"tpcw/3DM/MESI":        "6f791c35b22bfc9bfe9187f996406fabe41e9d97d8906540abcd6640c7220521",
	"sjbb/3DM/MESI":        "cf7628c188950eb9ab3f19f47ee7043a0d13038843d389bd3dd44bf96384aab4",
	"apache/3DM/MESI":      "67998ec9bb6d1cd8c2bf02ffb852716867e4262e4e8b6fe69959c23928e34290",
	"zeus/3DM/MESI":        "7b03c121faebf5b4f15ed55f3a375c9d326c0ad761f12f661ca9c3454fa2618f",
	"barnes/3DM/MESI":      "c7aeee58918a5477a724f8d6e6da13a6b43e2fb2c01b6ae5e7bc04fd99865e99",
	"ocean/3DM/MESI":       "c9b32328d0aae107e6483c4ee9b11e131b4cb07737875734b12b4dad4b57663e",
	"apsi/3DM/MESI":        "c636bda7b85969d452ae6768eb9c6deaa0115fb0560acbc14ceb650e2de4bfc5",
	"art/3DM/MESI":         "3e66dcaae5657b7cbee35362b268af56dc7bbf562d2c2bea4a6ce3f78bf8d88c",
	"swim/3DM/MESI":        "d9a9cc570dd051f9cab98d3965e156e0f54e5db4b576b0a6ce86f9120e8e17d8",
	"mgrid/3DM/MESI":       "6e27c23f2b3a471335a13f93cbaccaf0c440ab642ba4de923bad4f4dd14e7197",
	"multimedia/3DM/MESI":  "a92f0047e0d000b92afb3c070d4dd4e018d5a082ad7cf53ce9b4ee63867d79bb",
	"tpcw/3DM/MOESI":       "b1b8957a6a795de138c002577bc3831640dd25a3ec9d32c7c2b83d8da19795d8",
	"sjbb/3DM/MOESI":       "c970a73a9886fb178dcd84769960eeef16e4474521efdff14a55f12f90752b67",
	"apache/3DM/MOESI":     "9a286c685933365fc5661daffc70a43ae5568450dc737fb0bd9f053763c099ff",
	"zeus/3DM/MOESI":       "01957abf8e77cffdc7f1a13e1421a080d84db2ca4f7038af7c2082046c3afe95",
	"barnes/3DM/MOESI":     "488f3d8592341893aa5cbb588ed63b41f548abe947c7146276fd5ca2a497799a",
	"ocean/3DM/MOESI":      "1baa1d364eeab64592fef4bdb9ee20ba64db63d04476ad5f8294332294e4e514",
	"apsi/3DM/MOESI":       "ecda41bda64e5b6ab2c29a143d17b62a9e6068e431c7095f78a47ac93e1ca10e",
	"art/3DM/MOESI":        "6c228c9f10487e67bda5713f28b8dc6cf4709cadffcdb312061728aacab1cf4d",
	"swim/3DM/MOESI":       "b55637fcb370ff394322ac30641bb16a0633ece0f3c155df49be4623ba1730da",
	"mgrid/3DM/MOESI":      "e96014f0dc7fc8ee2e795acf0ed10ac71f727f778097512eea69c5ca420ff925",
	"multimedia/3DM/MOESI": "f36d9b6bc98a39f1a15184501dd57eb26770895b75dd0e1e486ad1be4cd3b3c4",
}

const (
	goldenSeed   = 20080621
	goldenCycles = 3000
)

// traceDigest hashes a trace and its statistics in a fixed binary
// layout.
func traceDigest(t *testing.T, sys *System, cycles int64) string {
	t.Helper()
	tr, st := sys.Run(cycles)
	h := sha256.New()
	var buf []byte
	prev := int64(-1)
	for i, e := range tr.Events {
		if e.Cycle < prev {
			t.Fatalf("event %d at cycle %d follows cycle %d", i, e.Cycle, prev)
		}
		prev = e.Cycle
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(e.Cycle))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Size))
		buf = append(buf, byte(e.Class), byte(len(e.Layers)))
		buf = append(buf, e.Layers...)
		h.Write(buf)
	}
	if err := binary.Write(h, binary.LittleEndian, st); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateTraceGolden checks that trace generation reproduces the
// recorded traces exactly for every workload on the 2DB, 3DB and 3DM
// designs under both protocols, and that cycles never decrease.
func TestGenerateTraceGolden(t *testing.T) {
	for _, arch := range []core.Arch{core.Arch2DB, core.Arch3DB, core.Arch3DM} {
		d := core.MustDesign(arch)
		for _, proto := range []Protocol{MESI, MOESI} {
			for _, w := range Workloads {
				name := w.Name + "/" + arch.String() + "/" + proto.String()
				p := DefaultParams(w, d.Topo, goldenSeed)
				p.Protocol = proto
				sys, err := NewSystem(p)
				if err != nil {
					t.Fatal(err)
				}
				got := traceDigest(t, sys, goldenCycles)
				if want, ok := traceGolden[name]; !ok || got != want {
					t.Errorf("%s: digest %s, want %q", name, got, want)
				}
			}
		}
	}
}

// BenchmarkGenerateTrace times one quick-suite CMP trace generation
// (tpcw on the 3DM placement over 8000 cycles).
func BenchmarkGenerateTrace(b *testing.B) {
	topo := core.MustDesign(core.Arch3DM).Topo
	w, _ := ByName("tpcw")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := GenerateTrace(w, topo, 8000, 42); err != nil {
			b.Fatal(err)
		}
	}
}
