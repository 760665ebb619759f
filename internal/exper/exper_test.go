package exper

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
)

// tinyOpt keeps experiment smoke tests fast: minimum dataset volumes, two
// queries, small synthetic graphs.
func tinyOpt() Options {
	return Options{
		Scale:          0.002, // clamps to the 40-graph floor per real set
		SynSizes:       []int{300},
		SynGraphs:      8,
		MaxQueries:     2,
		SamplePairs:    1500,
		LSAPSynCap:     200, // force the OOM cell
		BaselineSynCap: 5000,
	}
}

func TestRunRejectsUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig99", tinyOpt(), &buf); err == nil {
		t.Fatal("unknown id accepted")
	}
	if err := Run("table9", tinyOpt(), &buf); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestIDsCoverPaperArtifacts(t *testing.T) {
	ids := IDs()
	want := map[string]bool{
		"table3": true, "table4": true, "table5": true,
		"fig5": true, "fig7": true, "fig10": true, "fig21": true,
		"fig29": true, "fig31": true, "fig42": true,
	}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for id := range want {
		if !have[id] {
			t.Fatalf("IDs() missing %s", id)
		}
	}
	if have["fig30"] {
		t.Fatal("fig30 does not exist in the paper")
	}
}

func TestFigureMappingHelpers(t *testing.T) {
	if figDataset("fig12", 10) != "grec" {
		t.Fatal("fig12 must map to GREC")
	}
	if figDataset("fig17", 14) != "aasd" {
		t.Fatal("fig17 must map to AASD")
	}
	if synTau("fig33", 31) != 25 {
		t.Fatal("fig33 must map to tau=25")
	}
	if !isBetween("fig26", 26, 29) || isBetween("fig26", 27, 29) || isBetween("table3", 1, 99) {
		t.Fatal("isBetween broken")
	}
}

func TestTableFprintAligns(t *testing.T) {
	tbl := &Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxx", "1"}, {"y", "22"}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== t: demo ==") {
		t.Fatalf("missing banner:\n%s", out)
	}
	if !strings.Contains(out, "note: hello") {
		t.Fatal("missing note")
	}
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "a    ") {
		t.Fatalf("header not padded: %q", lines[1])
	}
}

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

// timed reports whether a table prints wall-clock times, which no two runs
// share: a "time" column, or query times in every cell.
func timed(tbl *Table) bool {
	return slices.Contains(tbl.Header, "time") || strings.Contains(strings.ToLower(tbl.Title), "query time")
}

// TestTablesAndPriors runs one id per figure family at tiny scale. Every
// table must be non-empty, and every table without wall-clock times must
// print exactly what testdata/tables.golden holds.
func TestTablesAndPriors(t *testing.T) {
	var all, golden bytes.Buffer
	r := newRunner(tinyOpt().withDefaults())
	// Restrict the real sets to the two smallest to keep the test quick.
	r.realSets = []string{"finger", "grec"}
	for _, id := range []string{
		"table3", "table4", "table5", "fig5", "fig6",
		"fig7", "fig10", "fig18", "fig22", "fig26", "fig31", "fig39",
		"xprefilter", "xhybrid",
	} {
		tables, err := r.run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tbl := range tables {
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table %q", id, tbl.Title)
			}
			tbl.Fprint(&all)
			if !timed(tbl) {
				tbl.Fprint(&golden)
			}
		}
	}
	out := all.String()
	for _, want := range []string{"finger", "grec", "syn1-0K", "phi", "tau\\v"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	const path = "testdata/tables.golden"
	if *update {
		if err := os.WriteFile(path, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.String(); got != string(want) {
		t.Fatalf("tables differ from %s (go test -run TestTablesAndPriors -update rewrites it)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestFigEffectRealShape(t *testing.T) {
	r := newRunner(tinyOpt().withDefaults())
	r.realSets = []string{"grec"}
	tables, err := r.run("fig16") // recall vs tau on GREC
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != 10 {
		t.Fatalf("want 10 tau rows, got %d", len(tbl.Rows))
	}
	// Column 1 is LSAP: a true lower bound ⇒ recall ≡ 1 (the paper's
	// observation in Section VII-C).
	for _, row := range tbl.Rows {
		if row[1] != "1.000" {
			t.Fatalf("LSAP recall %s at tau %s; want 1.000", row[1], row[0])
		}
	}
}

func TestFigVariantRuns(t *testing.T) {
	r := newRunner(tinyOpt().withDefaults())
	tables, err := r.run("fig24") // GBDA vs V1 on GREC
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Header) != 5 { // tau + GBDA + 3 alphas
		t.Fatalf("header = %v", tables[0].Header)
	}
	tables, err = r.run("fig28") // GBDA vs V2 on GREC
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Header) != 4 { // tau + GBDA + 2 weights
		t.Fatalf("header = %v", tables[0].Header)
	}
}

func TestFigTimeSynMarksOOM(t *testing.T) {
	r := newRunner(tinyOpt().withDefaults())
	tables, err := r.run("fig8")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tables[0].Fprint(&buf)
	if !strings.Contains(buf.String(), "OOM") {
		t.Fatalf("LSAP cap did not produce an OOM cell:\n%s", buf.String())
	}
}

func TestFigEffectSynRuns(t *testing.T) {
	r := newRunner(tinyOpt().withDefaults())
	tables, err := r.run("fig35") // recall vs size, tau=15
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != 1 { // one configured size
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "OOM" {
		t.Fatalf("LSAP cell = %q, want OOM under the test cap", tbl.Rows[0][1])
	}
}

func TestExtensionExperiments(t *testing.T) {
	r := newRunner(tinyOpt().withDefaults())
	for _, id := range ExtensionIDs() {
		tables, err := r.run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tbl := range tables {
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table %q", id, tbl.Title)
			}
		}
	}
}
