package experiments

// These tests assert the *shape* claims of the paper's evaluation — who
// wins, by roughly what factor, where crossovers fall — on the regenerated
// data. Absolute calibration is asserted in the madeleine (Table 1) and
// core (Table 2) packages. Every test reads one shared All() pass, so
// running any one of them regenerates the whole suite once.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpichmad/internal/stats"
)

var updateArtifacts = flag.Bool("update-artifacts", false,
	"rewrite testdata/artifacts.golden and BENCH_collectives.json from the regenerated results")

// The files the regenerated results are pinned to: every artifact's text,
// the collective experiments' series (cmd/benchcheck's input), and the
// scale machine's series (BenchmarkScaleMachine writes that file; only
// its series are deterministic).
const (
	artifactsGolden  = "testdata/artifacts.golden"
	benchCollectives = "../../BENCH_collectives.json"
	benchScale       = "../../BENCH_scale.json"
)

// firstPass is the one All() run every test of the package reads.
var firstPass struct {
	once    sync.Once
	results []*Result
	err     error
}

func allResults(t *testing.T) []*Result {
	t.Helper()
	firstPass.once.Do(func() { firstPass.results, firstPass.err = All() })
	if firstPass.err != nil {
		t.Fatal(firstPass.err)
	}
	return firstPass.results
}

// artifact returns the first pass's result for id.
func artifact(t *testing.T, id string) *Result {
	t.Helper()
	for _, r := range allResults(t) {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("All produced no %q artifact", id)
	return nil
}

func get(t *testing.T, s *stats.Series, size int) stats.Point {
	t.Helper()
	p, ok := s.At(size)
	if !ok {
		t.Fatalf("series %q has no point at %d", s.Name, size)
	}
	return p
}

func byName(t *testing.T, series []*stats.Series, name string) *stats.Series {
	t.Helper()
	for _, s := range series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q missing", name)
	return nil
}

func TestFig6Shape(t *testing.T) {
	a := artifact(t, "fig6a")
	chmad, chp4 := byName(t, a.Series, "ch_mad"), byName(t, a.Series, "ch_p4")
	raw := byName(t, a.Series, "raw_Madeleine")
	// §5.2: ch_mad beats ch_p4 up to 256 B; raw is below both.
	for _, sz := range []int{1, 4, 64, 256} {
		if get(t, chmad, sz).OneWay >= get(t, chp4, sz).OneWay {
			t.Errorf("fig6a: ch_mad not faster than ch_p4 at %dB", sz)
		}
		if get(t, raw, sz).OneWay >= get(t, chmad, sz).OneWay {
			t.Errorf("fig6a: raw not below ch_mad at %dB", sz)
		}
	}

	b := artifact(t, "fig6b")
	chmadB, chp4B := byName(t, b.Series, "ch_mad"), byName(t, b.Series, "ch_p4")
	// §5.2: ch_p4 ceiling ~10 MB/s; ch_mad exceeds 11 MB/s at 1 MB.
	if bw := get(t, chp4B, 1<<20).BandwidthMBs(); bw > 10.3 {
		t.Errorf("fig6b: ch_p4 ceiling %.2f, want <= ~10", bw)
	}
	if bw := get(t, chmadB, 1<<20).BandwidthMBs(); bw < 11.0 {
		t.Errorf("fig6b: ch_mad 1MB bw %.2f, want > 11", bw)
	}
	// Below the 64 KB switch they are similar (within 10%).
	for _, sz := range []int{4 << 10, 16 << 10} {
		m, p := get(t, chmadB, sz).BandwidthMBs(), get(t, chp4B, sz).BandwidthMBs()
		if m < p*0.9 || m > p*1.25 {
			t.Errorf("fig6b: at %d ch_mad %.2f vs ch_p4 %.2f not 'similar'", sz, m, p)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	b := artifact(t, "fig7b")
	chmad := byName(t, b.Series, "ch_mad")
	sca := byName(t, b.Series, "ScaMPI")
	smi := byName(t, b.Series, "SCI-MPICH")
	// §5.3: before 8 KB ch_mad's bandwidth is inferior or equal; beyond
	// 16 KB it outperforms both with 80 MB/s sustained.
	if get(t, chmad, 1<<10).BandwidthMBs() > get(t, sca, 1<<10).BandwidthMBs() {
		t.Error("fig7b: ch_mad should not beat ScaMPI below the switch point")
	}
	for _, sz := range []int{64 << 10, 256 << 10, 1 << 20} {
		m := get(t, chmad, sz).BandwidthMBs()
		if m <= get(t, sca, sz).BandwidthMBs() || m <= get(t, smi, sz).BandwidthMBs() {
			t.Errorf("fig7b: ch_mad does not win at %d", sz)
		}
	}
	if bw := get(t, chmad, 1<<20).BandwidthMBs(); bw < 80 {
		t.Errorf("fig7b: ch_mad sustained %.1f, want >= 80", bw)
	}

	a := artifact(t, "fig7a")
	// §5.3: latency comparisons are NOT favourable to ch_mad (the two
	// native SCI ports are lower).
	chmadA := byName(t, a.Series, "ch_mad")
	for _, other := range []string{"ScaMPI", "SCI-MPICH"} {
		if get(t, chmadA, 4).OneWay <= get(t, byName(t, a.Series, other), 4).OneWay {
			t.Errorf("fig7a: ch_mad should lose the small-message latency race to %s", other)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	b := artifact(t, "fig8b")
	chmad := byName(t, b.Series, "ch_mad")
	gm := byName(t, b.Series, "MPI-GM")
	pm := byName(t, b.Series, "MPICH-PM")
	// §5.4: "MPI-GM is definitely outperformed by both ch_mad and
	// MPICH-PM" for large messages.
	for _, sz := range []int{64 << 10, 1 << 20} {
		g := get(t, gm, sz).BandwidthMBs()
		if get(t, chmad, sz).BandwidthMBs() <= g || get(t, pm, sz).BandwidthMBs() <= g {
			t.Errorf("fig8b: MPI-GM not outperformed at %d", sz)
		}
	}
	// §5.4: PM takes the advantage below 4 KB and above 256 KB;
	// in between they are roughly the same (within 20%).
	if get(t, pm, 1<<10).BandwidthMBs() <= get(t, chmad, 1<<10).BandwidthMBs() {
		t.Error("fig8b: MPICH-PM should lead below 4K")
	}
	m, p := get(t, chmad, 64<<10).BandwidthMBs(), get(t, pm, 64<<10).BandwidthMBs()
	if m < p*0.8 || m > p*1.25 {
		t.Errorf("fig8b: mid-range not 'roughly the same': ch_mad %.1f vs PM %.1f", m, p)
	}

	a := artifact(t, "fig8a")
	chmadA, gmA := byName(t, a.Series, "ch_mad"), byName(t, a.Series, "MPI-GM")
	// §5.4: ch_mad beats MPI-GM below 512 B, loses beyond.
	if get(t, chmadA, 64).OneWay >= get(t, gmA, 64).OneWay {
		t.Error("fig8a: ch_mad should beat MPI-GM at 64B")
	}
	if get(t, chmadA, 1024).OneWay <= get(t, gmA, 1024).OneWay {
		t.Error("fig8a: MPI-GM should beat ch_mad at 1KB")
	}
}

func TestFig9Shape(t *testing.T) {
	a := artifact(t, "fig9a")
	alone := byName(t, a.Series, "SCI_thread_only")
	both := byName(t, a.Series, "SCI_thread_+_TCP_thread")
	// §5.5: a measurable but *limited* gap from the extra TCP poller.
	for _, sz := range []int{1, 64, 1024} {
		d := get(t, both, sz).OneWay - get(t, alone, sz).OneWay
		if d <= 0 {
			t.Errorf("fig9a: no overhead at %dB", sz)
		}
		if d.Micros() > 15 {
			t.Errorf("fig9a: gap %.1fus at %dB not 'limited'", d.Micros(), sz)
		}
	}

	b := artifact(t, "fig9b")
	aloneB := byName(t, b.Series, "SCI_thread_only")
	bothB := byName(t, b.Series, "SCI_thread_+_TCP_thread")
	// Large messages converge: within 2% at 1 MB.
	x, y := get(t, aloneB, 1<<20).BandwidthMBs(), get(t, bothB, 1<<20).BandwidthMBs()
	if y < x*0.98 {
		t.Errorf("fig9b: 1MB bandwidth did not converge: %.1f vs %.1f", x, y)
	}
}

func TestAblations(t *testing.T) {
	sw := artifact(t, "ablation-switch")
	// At 64 KB messages, a 64K switch point (pure eager) must lose to the
	// 8 KB election (zero-copy rendez-vous).
	sp8 := byName(t, sw.Series, "switch=8K")
	sp64 := byName(t, sw.Series, "switch=64K")
	if get(t, sp8, 64<<10).BandwidthMBs() <= get(t, sp64, 64<<10).BandwidthMBs() {
		t.Error("ablation X1: 8K election should beat pure eager at 64KB")
	}

	split := artifact(t, "ablation-split")
	s := byName(t, split.Series, "header/body split")
	m := byName(t, split.Series, "monolithic buffer")
	// §4.2.2: the monolithic padded buffer wastes wire time on every
	// eager message ("a lot of null data will be sent").
	for _, sz := range []int{64, 1 << 10} {
		if get(t, m, sz).OneWay <= get(t, s, sz).OneWay {
			t.Errorf("ablation X2: monolithic should be slower at %dB", sz)
		}
	}
}

func TestForwardingExperiment(t *testing.T) {
	r := artifact(t, "forwarding")
	direct := byName(t, r.Series, "direct SCI")
	fwd := byName(t, r.Series, "SCI->gw->Myrinet")
	// Store-and-forward costs roughly a second network traversal.
	d, f := get(t, direct, 4).OneWay, get(t, fwd, 4).OneWay
	if f <= d {
		t.Error("forwarding should cost more than a direct link")
	}
	if f > 4*d {
		t.Errorf("forwarding overhead implausibly large: %v vs %v", f, d)
	}
}

func TestAllAndByID(t *testing.T) {
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	seen := make(map[string]bool)
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("experiment id %q listed twice", id)
		}
		seen[id] = true
	}
}

// TestAllRegeneratesEveryArtifact checks the complete experiment suite —
// the same path as `cmd/experiments -exp all` — against every file its
// virtual numbers are pinned in, and that ByID regenerates each artifact
// byte for byte. That second run pins the bit-identical-runs guarantee the
// madlint determinism rules exist to protect: every source of randomness
// in the simulator is either eliminated (virtual time, cooperative
// scheduling, sorted map iterations) or explicitly seeded (netsim's
// fault-jitter PRNG), so a diff means map order, wall-clock time or an
// unseeded generator leaked into simulation behaviour.
//
// The pins, all exact:
//   - testdata/artifacts.golden holds every artifact's text: each table,
//     figure, relay table and link map;
//   - BENCH_collectives.json must equal the collective experiments'
//     series re-marshalled, byte for byte;
//   - the series of BENCH_scale.json must equal the scale artifact's.
//
// Regenerate the first two with
//
//	go test ./internal/experiments -run TestAllRegeneratesEveryArtifact -update-artifacts
//
// only when an output change is intended, and justify every moved line;
// BenchmarkScaleMachine rewrites BENCH_scale.json.
func TestAllRegeneratesEveryArtifact(t *testing.T) {
	results := allResults(t)
	ids := IDs()
	if len(results) != len(ids) {
		t.Fatalf("All produced %d artifacts, want %d", len(results), len(ids))
	}
	for i, r := range results {
		if r.ID != ids[i] {
			t.Errorf("artifact %d is %q, want %q", i, r.ID, ids[i])
		}
		if len(r.Text) < 40 {
			t.Errorf("%s rendered suspiciously short output", r.ID)
		}
		again, err := ByID(r.ID)
		if err != nil {
			t.Errorf("ByID(%q): %v", r.ID, err)
			continue
		}
		if again.Text != r.Text {
			t.Errorf("ByID(%q) rendered different text than All():\n%s", r.ID, divergence("All", r.Text, "ByID", again.Text))
		}
	}
	collectives, err := encodeCollectives(results)
	if err != nil {
		t.Fatal(err)
	}
	if *updateArtifacts {
		if err := os.WriteFile(artifactsGolden, encodeArtifacts(results), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchCollectives, collectives, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := golden(t)
	if len(want) != len(results) {
		t.Errorf("%s holds %d artifacts, All produced %d", artifactsGolden, len(want), len(results))
	}
	for _, r := range results {
		w, ok := want[r.ID]
		if !ok {
			t.Errorf("%s has no %q artifact", artifactsGolden, r.ID)
			continue
		}
		if w != r.Text {
			t.Errorf("%s differs from %s:\n%s", r.ID, artifactsGolden, divergence("golden", w, "All", r.Text))
		}
	}
	if committed, err := os.ReadFile(benchCollectives); err != nil {
		t.Error(err)
	} else if string(committed) != string(collectives) {
		t.Errorf("%s differs from the regenerated series:\n%s", benchCollectives,
			divergence("committed", string(committed), "All", string(collectives)))
	}
	checkScaleSeries(t, artifact(t, "scale"))
}

// encodeCollectives renders BENCH_collectives.json: the series of the
// collective experiments, in table order, under the file's description
// of what each series family measures.
func encodeCollectives(results []*Result) ([]byte, error) {
	out := struct {
		Experiment string        `json:"experiment"`
		Topology   string        `json:"topology"`
		Series     []BenchSeries `json:"series"`
	}{
		Experiment: "X4 hierarchical collectives + X5 multi-gateway routing + X5 variant adaptive multi-path relay" +
			" + X6 per-link device mux + X9 multi-leader rail-striped collectives",
		Topology: "X4: 2 SCI islands x 4 single-proc nodes, interleaved ranks, TCP backbone" +
			" (_cap series: backbone trunk capped at the TCP rate via netsim.Params.NetworkBandwidth);" +
			" *_gw series (X5): bridged 3-cluster topology, 2 TCP bridges, no common network" +
			" (GwHops_* point values are gateway-relayed message counts, not microseconds);" +
			" Relay_stripe/_single, Adapt_*, AdaptQ_* and RelayQPeakMax (X5 variant): bridged triangle" +
			" with a third TCP side — striping vs single-path relay, adaptive re-plan vs static under a" +
			" loaded bridge (AdaptQ_*/RelayQPeakMax point values are relay queue depths, not microseconds);" +
			" Mux_*/Uniform_* series (X6): 2 dual-proc SCI nodes + 2 dual-proc BIP nodes on a shared TCP" +
			" backbone — per-link device mux (chself/smp/SAN/TCP classes, per-class autotuned switch" +
			" points) vs the uniform single-protocol ch_mad configuration (Topology.Uniform);" +
			" ML_* series (X9): bridged triangle, autotuned sessions — ML_*_multi lets the tuner pick the" +
			" multi-leader 2level-multi algorithms (one co-leader per distinct gateway, shards striped" +
			" across every bridge), ML_*_single forces the single-leader two-level baseline (CollHier)",
	}
	for _, r := range results {
		switch r.ID {
		case "hcoll", "gateway", "adaptive", "heteromux", "multileader":
			out.Series = append(out.Series, r.Bench()...)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	return append(data, '\n'), err
}

// checkScaleSeries compares the scale artifact's series with the series
// recorded in BENCH_scale.json, exactly.
func checkScaleSeries(t *testing.T, scale *Result) {
	t.Helper()
	data, err := os.ReadFile(benchScale)
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Series []BenchSeries `json:"series"`
	}
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("%s: %v", benchScale, err)
	}
	if got := scale.Bench(); !reflect.DeepEqual(committed.Series, got) {
		a, _ := json.MarshalIndent(committed.Series, "", "  ")
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("%s series differ from the scale artifact:\n%s", benchScale,
			divergence("committed", string(a), "All", string(b)))
	}
}

// TestCSVMatchesTable checks that -csv emits every artifact's series in
// the unit its table renders: each CSV value (3 decimals) rounds to the
// table's (2 decimals), row by row and column by column.
func TestCSVMatchesTable(t *testing.T) {
	for _, r := range allResults(t) {
		if len(r.Series) == 0 {
			continue
		}
		csvRows := strings.Split(strings.TrimSuffix(r.CSV(), "\n"), "\n")[2:]
		tableRows := strings.Split(r.Text, "\n")[2:]
		for i, row := range csvRows {
			cells := strings.Split(row, ",")[1:]
			fields := strings.Fields(tableRows[i])[1:]
			if len(cells) != len(fields) {
				t.Errorf("%s row %d: CSV has %d values, table %d", r.ID, i, len(cells), len(fields))
				continue
			}
			for j, cell := range cells {
				if cell == "" {
					if fields[j] != "-" {
						t.Errorf("%s row %d: CSV has no %s value, table has %s", r.ID, i, r.Series[j].Name, fields[j])
					}
					continue
				}
				v, err := strconv.ParseFloat(cell, 64)
				w, err2 := strconv.ParseFloat(fields[j], 64)
				if err != nil || err2 != nil || math.Abs(v-w) > 0.006 {
					t.Errorf("%s row %d, %s: CSV %s, table %s", r.ID, i, r.Series[j].Name, cell, fields[j])
				}
			}
		}
	}
}

// golden returns the artifact texts pinned in testdata/artifacts.golden.
func golden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(artifactsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeArtifacts(data)
	if err != nil {
		t.Fatalf("%s: %v", artifactsGolden, err)
	}
	return want
}

// encodeArtifacts renders the golden file: each artifact's text behind a
// "=== <id> <bytes>" header line, so texts need no escaping.
func encodeArtifacts(results []*Result) []byte {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "=== %s %d\n%s\n", r.ID, len(r.Text), r.Text)
	}
	return []byte(b.String())
}

// decodeArtifacts parses encodeArtifacts' format into id -> text.
func decodeArtifacts(data []byte) (map[string]string, error) {
	out := make(map[string]string)
	s := string(data)
	for s != "" {
		nl := strings.IndexByte(s, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("truncated header %q", s)
		}
		var id string
		var n int
		if _, err := fmt.Sscanf(s[:nl], "=== %s %d", &id, &n); err != nil {
			return nil, fmt.Errorf("bad header %q: %v", s[:nl], err)
		}
		s = s[nl+1:]
		if len(s) <= n || s[n] != '\n' {
			return nil, fmt.Errorf("artifact %s: text shorter than its %d bytes", id, n)
		}
		out[id] = s[:n]
		s = s[n+1:]
	}
	return out, nil
}

// divergence reports, line by line, where two renderings of an artifact
// differ; an and bn name the renderings a and b.
func divergence(an, a, bn, b string) string {
	var out strings.Builder
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			fmt.Fprintf(&out, "line %d diverged:\n  %s: %s\n  %s: %s\n", i+1, an, x, bn, y)
		}
	}
	if out.Len() == 0 {
		return "texts differ but no line diverged (trailing newline?)"
	}
	return out.String()
}
